"""Print terms_used of eval_power on each power_disk item of the benchmark,
and the total, at one seed.  A point eval_power refuses prints "refused"
and adds nothing to the total.  The items come from bench/workloads.py,
which is only imported.

    python3 tools/power_terms.py [--seed 11]
"""

import argparse
import pathlib
import sys

root = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(root / "src"), str(root / "bench")]
sys.dont_write_bytecode = True  # leave bench/ as it is

from workloads import make_items  # noqa: E402

from kapteyn import DomainError, eval_power  # noqa: E402

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--seed", type=int, default=11)
seed = parser.parse_args().seed
total = 0
for item in make_items("power_disk", seed):
    x, y, t = item["args"]
    try:
        terms = eval_power(complex(x, y), t).terms_used
    except DomainError:
        print(item["id"], "refused")
        continue
    total += terms
    print(item["id"], terms)
print("total", total)
