"""Set-up cost of one shape: import jordal and build its frame with Gram data.

Run as `python3 perfbench/setup_probe.py K DELTA` with src on PYTHONPATH; the
caller times the whole process. Prints the Gram determinant so the caller
can check that every probe built the same frame.
"""

import sys

from jordal import JordanSpec, frame


def main(k: int, delta: int) -> None:
    fr = frame(JordanSpec(k, delta))
    if fr.gram is None or fr.gram_inv is None:
        raise SystemExit("frame has no Gram data")
    print(fr.det_gram)


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
