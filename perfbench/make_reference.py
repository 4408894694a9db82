"""Write perfbench/reference.json: the values the benchmark's checks expect.

Run from the repository root:

    python3 perfbench/make_reference.py

The values come from the library at the current commit, for both the full
and the smoke sizes, and simulator counts for workloads.DEFAULT_SEED.
Regenerate only for a change that is meant to alter them; a faster path
must reproduce them exactly.
"""

import json
import sys

import run


def main() -> int:
    run.use_checkout_package()
    import workloads

    reference = {
        name: {scale: workloads.compute_reference(name, scale) for scale in sizes}
        for name, sizes in workloads.SIZES.items()
    }
    lines = ["%s: %s" % (json.dumps(name), json.dumps(reference[name], sort_keys=True)) for name in sorted(reference)]
    with open(workloads.REFERENCE_FILE, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print("wrote %s" % workloads.REFERENCE_FILE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
