"""perfbench: the simulator's benchmark (see perfbench/README.md)."""
