#!/usr/bin/env python3
"""Record tight golden values of small runs for tests/test_golden.py.

    PYTHONPATH=src python3 scripts/record_golden.py

Runs each case below and rewrites tests/golden.json with its headline
values: the scenarios' summary maxima, the final-state L2 norms of u and
theta, and the manufactured runs' energy and L2 errors.  The test compares
a fresh run to these values at GOLDEN_RTOL relative.  Regenerate only when
a change is meant to move them, and state the drift it caused.
"""
import json
import math
import pathlib
import sys

from thermofem import fem, mms, scenarios, stepping
from thermofem.coefficients import variant_by_name
from thermofem.mesh import unit_square_mesh

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden.json"
GOLDEN_RTOL = 1e-8

# name -> scenario config: coarse meshes, a few steps
SCENARIOS = {
    "example3_h3e-3_4steps": scenarios.ScenarioConfig(example=3, h=3e-3, final_time=4e-7),
    "example2_h4e-3_6steps": scenarios.ScenarioConfig(example=2, h=4e-3, final_time=6e-7),
}
# name -> (variant, scheme, degree, n, tau, steps): manufactured runs cut short in time
MANUFACTURED = {
    f"mms_{variant}_{scheme}_p{degree}_n{n}": (variant, scheme, degree, n, 1.0 / 128, 8)
    for variant, scheme, degree in (("westervelt", "euler", 1), ("westervelt", "bdf2", 2))
    for n in (8, 16)
}


def _norms(state) -> dict:
    space = state.space
    return {"final_l2_u": space.l2_norm(state.u[0]),
            "final_l2_theta": space.l2_norm(state.theta[0])}


def scenario_values(config) -> dict:
    result = scenarios.run_scenario(config)
    values = {k: result.summary[k] for k in ("max_abs_u", "max_abs_theta", "final_max_abs_theta")}
    values.update(_norms(result.simulation.state))
    return values


def manufactured_values(variant_name, scheme_name, degree, n, tau, steps) -> dict:
    pair = mms.ManufacturedPair()
    config = mms.ConvergenceConfig()
    variant = variant_by_name(variant_name)
    scheme = stepping.scheme_by_name(scheme_name)
    space = fem.build_space(unit_square_mesh(n), degree)
    result = stepping.run_simulation(
        space, scheme=scheme, variant=variant, model=config.model, heat=config.heat,
        tau=tau, n_steps=steps, u0=pair.u_field(), u1=pair.ut_field(),
        theta0=pair.theta_field(), projection="ritz",
        sources=fem.source_loads(space, pair.sources(variant, config.model, config.heat)))
    e_tau, e_l2 = mms.total_error(result.state, pair, scheme)
    return {"e_tau": e_tau, "e_l2": e_l2, **_norms(result.state)}


def compute(name: str) -> dict:
    if name in SCENARIOS:
        return scenario_values(SCENARIOS[name])
    return manufactured_values(*MANUFACTURED[name])


CASES = list(SCENARIOS) + list(MANUFACTURED)


def main() -> int:
    golden = {}
    for name in CASES:
        golden[name] = compute(name)
        if not all(math.isfinite(v) and v != 0.0 for v in golden[name].values()):
            print(f"{name}: a golden value is zero or not finite: {golden[name]}", file=sys.stderr)
            return 1
        print(name, golden[name])
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
