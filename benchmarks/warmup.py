"""Set-up work of a fresh interpreter: import gcdeg and gcdeg.cli, then run
one op per subcommand on the smallest input, so lazy imports (scipy.spatial
inside approximate_p, the oracle) land in set-up rather than in a timed op.

Run as a script, it is the unit that setup_s times; run.py also calls
warm_up() in its own process before timing.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gcdeg  # noqa: E402
import gcdeg.cli  # noqa: E402

WARMUP_ARGV = (
    ("analyze", "--preset", "sl2", "--mc-check", "--mc-samples", "1000"),
    ("h-eval", "--preset", "sl2", "--f", "linear:1"),
    ("h-eval", "--preset", "sl2", "--f", "pl:0,1;1,0"),
    ("filtration", "--preset", "sl2", "--f", "linear:1/2", "--k", "2"),
    ("approx", "--preset", "so4-case1", "--f", "linear:1/2,1/2", "--p", "1"),
)


def warm_up() -> None:
    for argv in WARMUP_ARGV:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = gcdeg.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"warm-up op {' '.join(argv)} exited with {code}")
    rs = gcdeg.build_root_system(gcdeg.RootSystemSpec(catalog="A1"))
    region = gcdeg.build_polytope(vertices=[[0], [3]])
    gcdeg.region_moments(region, gcdeg.dh_density(rs), [0.5])


if __name__ == "__main__":
    warm_up()
