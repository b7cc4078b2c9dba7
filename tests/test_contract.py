"""The input contract, over every public entry of the seven layers.

Each public function, class and method of qcore, fock, wick, lorentz,
dirac, propagator and scattering, found by walking the modules, has one
valid base call in CALLS or a reason in EXEMPT; a public name in neither
fails.  Each base call is bound to the entry's inspect.signature.  For
every float in it, a float argument or a component of a vector (nested
tuples and lists are walked; objects such as kinematics are not), the
values 10**400, nan, inf and -inf each raise a QFieldError, or a
ValueError where the entry's docstring states one.
"""
import inspect
import math

import pytest

from qfield import dirac, fock, lorentz, propagator as prop, qcore
from qfield import scattering as sc, wick
from qfield.errors import QFieldError
from qfield.fock import a, a_dag, b_dag

LAYERS = (qcore, fock, wick, lorentz, dirac, prop, sc)
BAD = {"10**400": 10 ** 400, "nan": math.nan, "inf": math.inf,
       "-inf": -math.inf}

LEG = (2.0, 0.0, 0.0, 3.0 ** 0.5)  # on shell at m = 1
K = (0.3, 0.2, 0.0, 0.1)
ROOT3 = 3.0 ** 0.5
KIN = sc.cm_elastic_kinematics(2.0, 1.0, 1.0)
ANNIHILATION = sc.cm_annihilation_kinematics(2.0, 1.0, 1.0)
BOOST = sc.Boost((0.3, -0.2, 0.1))
OPS = (a(0), a_dag(0))

CALLS = {
    "qcore.basic_number": (qcore.basic_number, (0.5, 3)),
    "qcore.q_occupancy": (qcore.q_occupancy, (1.0, 0.5)),
    "fock.ModeLabel": (fock.ModeLabel, (fock.PARTICLE, 0)),
    "fock.LadderOp": (fock.LadderOp, (fock.CREATE, fock.ModeLabel(
        fock.PARTICLE, 0))),
    "fock.a": (fock.a, (0,)),
    "fock.a_dag": (fock.a_dag, (0,)),
    "fock.b": (fock.b, (0,)),
    "fock.b_dag": (fock.b_dag, (0,)),
    "fock.apply_string": (fock.apply_string, ((a(0), a_dag(0), a_dag(0)),
                                              {}, 0.5)),
    "fock.vev": (fock.vev, (OPS, 0.5)),
    "fock.charge_conjugate_op": (fock.charge_conjugate_op, (a(0), 1.0)),
    "fock.charge_conjugate_string": (fock.charge_conjugate_string,
                                     ((a(0), b_dag(1)), 1.0)),
    "wick.QPoly": (wick.QPoly, ((1, 2),)),
    "wick.QPoly.__call__": (wick.QPoly((1, 2)), (0.5,)),
    "wick.QPoly.pure_power": (wick.QPoly((0, 1)).pure_power, ()),
    "wick.NormalForm.coefficient": (wick.normal_order(OPS, 0.5).coefficient,
                                    ((a_dag(0), a(0)),)),
    "wick.NormalForm.vacuum_projection": (
        wick.normal_order(OPS, 0.5).vacuum_projection, ()),
    "wick.normal_order": (wick.normal_order, (OPS, 0.5)),
    "wick.wick_expand": (wick.wick_expand, (OPS, 0.5)),
    "wick.wick_vev": (wick.wick_vev, (OPS, 0.5)),
    "wick.verify_wick": (wick.verify_wick, (OPS, 0.5)),
    "lorentz.boost_rows": (lorentz.boost_rows, ((0.3, -0.2, 0.1),)),
    "dirac.gamma": (dirac.gamma, (1,)),
    "dirac.slash": (dirac.slash, ((2.0, 0.5, -0.3, 0.4),)),
    "dirac.onshell_momentum": (dirac.onshell_momentum, ((0.5, -0.3, 0.4),
                                                        1.0)),
    "dirac.DiracSpinor.bar": (dirac.u_spinor(LEG, 1, 1.0).bar, ()),
    "dirac.u_spinor": (dirac.u_spinor, (LEG, 1, 1.0)),
    "dirac.charge_conjugate_spinor": (dirac.charge_conjugate_spinor,
                                      (dirac.u_spinor(LEG, 2, 1.0),)),
    "dirac.theta_projector": (dirac.theta_projector, (LEG, 1, 1.0)),
    "dirac.spin_sum": (dirac.spin_sum, (LEG, 1.0, "u")),
    "dirac.polarization_vectors": (dirac.polarization_vectors, (LEG, 1.0)),
    "dirac.polarization_sum": (dirac.polarization_sum, (LEG, 1.0)),
    "dirac.polarization_sum_closed_form": (dirac.polarization_sum_closed_form,
                                           (LEG, 1.0)),
    "dirac.identity_checks": (dirac.identity_checks, ()),
    "propagator.scalar_propagator_momentum": (prop.scalar_propagator_momentum,
                                              (K, 1.0, 0.5)),
    "propagator.pole_residues": (prop.pole_residues, (K[1:], 1.0, 0.5)),
    "propagator.spinor_propagator_momentum": (prop.spinor_propagator_momentum,
                                              (K, 1.0, 0.5)),
    "propagator.photon_propagator_momentum": (prop.photon_propagator_momentum,
                                              (K, 1.0, 0.5)),
    "propagator.delta_plus_equal_time": (prop.delta_plus_equal_time,
                                         (0.5, 1.0)),
    "propagator.spacelike_q_commutator": (prop.spacelike_q_commutator,
                                          (0.5, 1.0, 0.5)),
    "propagator.causal_position": (prop.causal_position,
                                   (2.0, 0.5, 1.0, 0.5)),
    "scattering.Boost": (sc.Boost, ((0.3, -0.2, 0.1),)),
    "scattering.Boost.apply": (BOOST.apply, (LEG,)),
    "scattering.ProcessKinematics": (sc.ProcessKinematics, (
        ((2.0, 0.0, 0.0, ROOT3), (2.0, 0.0, 0.0, -ROOT3)),
        ((2.0, ROOT3, 0.0, 0.0), (2.0, -ROOT3, 0.0, 0.0)),
        (1.0, 1.0, 1.0, 1.0))),
    "scattering.ProcessKinematics.boosted": (KIN.boosted, (BOOST,)),
    "scattering.cm_elastic_kinematics": (sc.cm_elastic_kinematics,
                                         (2.0, 1.0, 1.0)),
    "scattering.cm_annihilation_kinematics": (sc.cm_annihilation_kinematics,
                                              (2.0, 1.0, 1.0)),
    "scattering.correction_factor": (sc.correction_factor, (
        2.0, 1.5, (0.0, 0.0, 1.0), (0.5, 0.0, 0.2), 0.5, sc.PHOTON_LINE)),
    "scattering.photon_correction_pair": (sc.photon_correction_pair,
                                          (KIN, 0.5)),
    "scattering.moller_amplitude": (sc.moller_amplitude,
                                     (KIN, (1, 2, 1, 2), 0.5)),
    "scattering.moller_spin_summed": (sc.moller_spin_summed, (KIN, 0.5)),
    "scattering.annihilation_correction_pair": (
        sc.annihilation_correction_pair, (ANNIHILATION, 0.5)),
    "scattering.frame_scan": (sc.frame_scan, (KIN, 0.5, [BOOST])),
}

RECORD = "a result record holds what a layer computed and checks nothing"
EXEMPT = {
    # documented unchecked helpers: a non-finite input gives inf or nan,
    # and demo 03 and the bench compare omega's formula bit for bit
    "lorentz.omega": "documented unchecked helper",
    "lorentz.minkowski_dot": "documented unchecked helper",
    # records: an infinite onshell_distance, say, is a value they hold
    "wick.NormalForm": RECORD,
    "wick.PairingDiagram": RECORD,
    "wick.WickReport": RECORD,
    "dirac.DiracSpinor": RECORD,
    "propagator.PropagatorValue": RECORD,
}


def public_entries():
    """The qualified names of the public functions, classes and methods
    (with ``__call__``) defined in the layers."""
    for module in LAYERS:
        prefix = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            yield f"{prefix}.{name}"
            if inspect.isclass(obj):
                for method, member in vars(obj).items():
                    if ((not method.startswith("_") or method == "__call__")
                            and inspect.isfunction(member)):
                        yield f"{prefix}.{name}.{method}"


def float_paths(value, path=()):
    """The index paths of the floats in value, through tuples and lists."""
    if type(value) is float:
        yield path
    elif type(value) in (tuple, list):
        for i, item in enumerate(value):
            yield from float_paths(item, path + (i,))


def replaced(value, path, new):
    if not path:
        return new
    items = list(value)
    items[path[0]] = replaced(items[path[0]], path[1:], new)
    return type(value)(items)


def test_every_public_entry_has_a_base_call_or_a_reason():
    found = set(public_entries())
    assert found - set(CALLS) - set(EXEMPT) == set()
    assert (set(CALLS) | set(EXEMPT)) - found == set()
    assert set(CALLS) & set(EXEMPT) == set()


@pytest.mark.parametrize("name", CALLS)
def test_bad_numbers_raise_typed_errors(name):
    fn, args = CALLS[name]
    fn(*args)  # the base call is valid
    bound = inspect.signature(fn).bind(*args).arguments
    doc = inspect.getdoc(fn) or ""
    allowed = (QFieldError, ValueError) if "ValueError" in doc else QFieldError
    leaks = []
    for path in float_paths(args):
        where = list(bound)[path[0]] + "".join(f"[{i}]" for i in path[1:])
        for label, bad in BAD.items():
            try:
                fn(*replaced(args, path, bad))
            except allowed:
                continue
            except Exception as exc:  # the leak itself, reported below
                leaks.append(f"{where}={label}: {type(exc).__name__}: {exc}")
            else:
                leaks.append(f"{where}={label}: returned")
    assert not leaks, "\n".join(leaks)
