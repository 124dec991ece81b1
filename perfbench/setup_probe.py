"""One fresh-interpreter set-up: import beamlab, build config and projector.

Run by ``run.py`` as ``python3 setup_probe.py <src-dir> <workload> <seed>``;
the caller times the whole process. Prints the projector build time in
seconds as JSON on stdout.
"""

import json
import sys
import time


def main():
    src, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    import beamlab as bl

    from workloads import build_projector, make_config

    config = make_config(bl, name, seed)
    start = time.perf_counter()
    build_projector(bl, config)
    print(json.dumps({"lcssp_setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
