"""Market data model: curves, Black formula, surfaces and snapshots."""
