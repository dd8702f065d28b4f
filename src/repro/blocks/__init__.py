"""The nine SAM dataflow block families (paper sections 3 and 4)."""

from .array import ArrayLoad
from .base import (
    Block,
    BlockError,
    Fanout,
    PortError,
    PortSpec,
    RootFeeder,
    Sink,
    StreamFeeder,
    StreamXfer,
)
from .bitvector import BVExpander, BVIntersect
from .compute import ALU, OPERATORS, ScalarALU
from .drop import CoordDropper, ValueDropper
from .locate import Locator
from .merge import Intersect, MergeSide, Union
from .parallel import InterleaveSerializer, Parallelizer
from .reduce import MatrixReducer, ScalarReducer, VectorReducer
from .repeat import REPEAT, RepeatSigGen, Repeater, make_repeater
from .scanner import (
    BitvectorLevelScanner,
    LevelScanner,
    UncompressedLevelScanner,
    make_scanner,
)
from .writer import (
    CompressedLevelWriter,
    LinkedListLevelWriter,
    ScatterValsWriter,
    ValsWriter,
)

__all__ = [
    "ALU",
    "ArrayLoad",
    "BVExpander",
    "BVIntersect",
    "BitvectorLevelScanner",
    "Block",
    "BlockError",
    "CompressedLevelWriter",
    "CoordDropper",
    "Fanout",
    "Intersect",
    "InterleaveSerializer",
    "LevelScanner",
    "LinkedListLevelWriter",
    "Locator",
    "MatrixReducer",
    "MergeSide",
    "OPERATORS",
    "Parallelizer",
    "PortError",
    "PortSpec",
    "REPEAT",
    "RepeatSigGen",
    "Repeater",
    "RootFeeder",
    "ScalarALU",
    "ScalarReducer",
    "ScatterValsWriter",
    "Sink",
    "StreamFeeder",
    "StreamXfer",
    "UncompressedLevelScanner",
    "Union",
    "ValsWriter",
    "ValueDropper",
    "VectorReducer",
    "make_repeater",
    "make_scanner",
]
