"""The benchmark's tracer finds every hook it patches and puts each one back.

perfbench/tracing.py replaces named module attributes and class members of
the package with timing wrappers; a renamed or deleted hook makes install
raise here instead of only in a traced benchmark run.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_class():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return Tracer


def test_tracer_install_and_uninstall_restore_every_attribute():
    from normshift import (cli, closedform, dynamics, experiment, forces,
                           geometry, normality, numdiff, odesolve, shift)
    owners = [cli, closedform, dynamics, experiment, forces, geometry, normality,
              numdiff, odesolve, shift, dynamics.Trajectory, forces.ForceField,
              odesolve.OdeSolution]
    before = [dict(vars(o)) for o in owners]
    tracer = _tracer_class()()
    tracer.install()
    try:
        during = [dict(vars(o)) for o in owners]
    finally:
        tracer.uninstall()
    after = [dict(vars(o)) for o in owners]

    patched = {(o.__name__, k) for o, b, d in zip(owners, before, during)
               for k in b if d[k] is not b[k]}
    for hook in [("normshift.odesolve", "solve_dopri"), ("OdeSolution", "__call__"),
                 ("Trajectory", "states"), ("normshift.shift", "integrate"),
                 ("normshift.dynamics", "christoffel"), ("normshift.cli", "cycloid"),
                 ("normshift.cli", "gravity_shift"), ("normshift.cli", "normal_shift")]:
        assert hook in patched
    for o, b, a in zip(owners, before, after):
        assert a.keys() == b.keys(), o.__name__
        assert [k for k in b if a[k] is not b[k]] == [], o.__name__
