"""``python -m perfbench [pin] ...``: run the benchmark, or re-pin it."""

import sys

if __name__ == "__main__":
    if sys.argv[1:2] == ["pin"]:
        from perfbench.pin import main as pin_main
        sys.exit(pin_main(sys.argv[2:]))
    from perfbench.run import main
    sys.exit(main())
