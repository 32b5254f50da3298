"""Write ``reference.json``: the values the benchmark's output checks
compare against, computed by the library at full precision.

    python3 bench/record_reference.py

Re-recording is a change to the benchmark: do it only when a result is
meant to change, and say why in the change that does it.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from catpurify import ensemble, strategy  # noqa: E402

from workloads import BlockMultiparty, FigureSweep  # noqa: E402


def main() -> None:
    bi = FigureSweep.BIPARTITE
    f_max = bi["f_min"] + bi["step"] * (bi["n_points"] - 1)
    curve = strategy.yield_curve(
        2, bi["f_min"], f_max, bi["step"],
        [strategy.MethodSpec.from_id(mid) for mid in bi["methods"]],
    )
    assert curve.grid.size == bi["n_points"]
    single = ensemble.werner_single(BlockMultiparty.N_PARTIES, BlockMultiparty.FIDELITY)
    reference = {
        "figure_sweep": {mid: curve.raw[mid].tolist() for mid in bi["methods"]},
        "block_multiparty": {str(m): ensemble.block_yield(single, m) for m in BlockMultiparty.SIZES},
    }
    with open(BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
