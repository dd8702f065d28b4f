"""End-to-end and per-layer benchmark of the SAM simulator (see README.md)."""
