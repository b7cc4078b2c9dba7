"""Command-line front end.

Every subcommand emits a CSV table (header always present, floats at 17
significant digits, complex values as re/im column pairs) so runs are
byte-reproducible and suitable for golden-file testing.  Exit codes:
0 success, 1 computation error (typed error on stderr), 2 usage error.

Only the q-algebra layers (qcore, fock, wick) load with the CLI; the
dirac, propagator and scattering layers are imported by the commands that
use them.  No command needs numpy.
"""
from __future__ import annotations

import argparse
import os
import sys
from itertools import zip_longest

from . import fock, wick
from .errors import QFieldError, finite
from .qcore import basic_number, q_occupancy

DEFAULT_GOLDEN_DIR = "golden"
# scattering.PHOTON_LINE and scattering.ELECTRON_LINE, spelled out so that
# building the parser does not import the scattering layer (a test pins
# the two together)
FLAVORS = ("photon_line", "electron_line")


def fmt(x) -> str:
    return "%.17g" % float(x)


def parse_ops(text: str):
    """Parse operator tokens like 'a0,a0+' or 'a+ b1' into LadderOps."""
    ops = []
    for tok in text.replace(",", " ").split():
        dagger = tok.endswith("+")
        body = tok[:-1] if dagger else tok
        if not body or body[0] not in "ab":
            raise ValueError(f"bad operator token {tok!r}")
        mode = int(body[1:]) if len(body) > 1 else 0
        species = fock.PARTICLE if body[0] == "a" else fock.ANTIPARTICLE
        kind = fock.CREATE if dagger else fock.ANNIHILATE
        ops.append(fock.LadderOp(kind, fock.ModeLabel(species, mode)))
    return tuple(ops)


def ops_repr(ops) -> str:
    return " ".join(repr(op) for op in ops)


def check_finite_options(args):
    """Reject a nan or infinite value in any float option."""
    for name, value in vars(args).items():
        if isinstance(value, float):
            finite(value, "--" + name.replace("_", "-"))


def parse_vec3(text: str) -> tuple:
    parts = tuple(finite(float(p), f"component of {text!r}")
                  for p in text.split(","))
    if len(parts) != 3:
        raise ValueError(f"need 3 components, got {text!r}")
    return parts


def parse_grid(text: str) -> list:
    """lo:hi:n as the floats of numpy.linspace(lo, hi, n), bit for bit:
    lo + i*step with the last point set to hi, where step = (hi - lo)/(n - 1)
    underflows to 0 (i/(n - 1))*(hi - lo) + lo, and 0*(hi - lo) + lo at
    n = 1."""
    lo, hi, n = text.split(":")
    lo = finite(float(lo), f"grid start in {text!r}")
    hi = finite(float(hi), f"grid end in {text!r}")
    n = int(n)
    if n < 0:
        raise ValueError(f"Number of samples, {n}, must be non-negative.")
    delta, div = hi - lo, n - 1
    if div <= 0:
        return [0.0 * delta + lo] * n
    step = delta / div
    if step == 0.0:  # a subnormal step, as numpy.linspace handles it
        grid = [i / div * delta + lo for i in range(n)]
    else:
        grid = [i * step + lo for i in range(n)]
    grid[-1] = hi
    return grid


# ---------------------------------------------------------------- commands

def cmd_qnum(args):
    header = ["q", "n", "basic_number"]
    rows = [[fmt(args.q), str(args.n), fmt(basic_number(args.q, args.n))]]
    return header, rows


def cmd_planck(args):
    header = ["x", "q", "occupancy"]
    rows = [[fmt(args.x), fmt(args.q), fmt(q_occupancy(args.x, args.q))]]
    return header, rows


def cmd_fock_vev(args):
    ops = parse_ops(args.ops)
    val = fock.vev(ops, args.q, args.n_max)
    header = ["ops", "q", "vev_re", "vev_im"]
    rows = [[ops_repr(ops), fmt(args.q), fmt(val.real), fmt(val.imag)]]
    return header, rows


def cmd_wick_normal(args):
    ops = parse_ops(args.ops)
    nf = wick.normal_order(ops, args.q)
    header = ["term", "coeff_re", "coeff_im", "q_power"]
    rows = []
    for term in sorted(nf.terms, key=lambda t: (len(t), repr(t))):
        poly = nf.terms[term]
        c = poly(args.q)
        p = poly.pure_power()
        rows.append([ops_repr(term) or "1", fmt(c.real), fmt(c.imag),
                     "" if p is None else str(p)])
    return header, rows


def cmd_wick_expand(args):
    ops = parse_ops(args.ops)
    diagrams = wick.wick_expand(ops, args.q)
    header = ["pairs", "unpaired", "crossings", "coeff_re", "coeff_im"]
    rows = []
    for d in diagrams:
        rows.append(["|".join(f"{i}-{j}" for i, j in d.pairs) or "-",
                     "|".join(str(i) for i in d.unpaired) or "-",
                     str(d.crossings),
                     fmt(complex(d.coefficient).real),
                     fmt(complex(d.coefficient).imag)])
    return header, rows


def cmd_wick_verify(args):
    # the sweep visits 2^(N+1) - 2 strings, so it keeps the enumerators' cap
    if args.max_len > wick.MAX_STRING_LEN:
        raise ValueError(f"string length {wick.MAX_STRING_LEN + 1} exceeds "
                         f"{wick.MAX_STRING_LEN}")
    reports = []
    for length in range(1, args.max_len + 1):
        for bits in range(2 ** length):
            ops = tuple(fock.a_dag(0) if (bits >> i) & 1 else fock.a(0)
                        for i in range(length))
            reports.append(wick.verify_wick(ops, args.q))
    max_diff = max((rep.abs_diff for rep in reports), default=0.0)
    passed = all(rep.passed for rep in reports)
    header = ["q", "max_len", "strings", "max_abs_diff", "passed"]
    rows = [[fmt(args.q), str(args.max_len), str(len(reports)), fmt(max_diff),
             str(passed).lower()]]
    return header, rows


# numpy.random.default_rng(12345).uniform(-3, 3, 3), drawn 20 times
DIRAC_CHECK_PVECS = (
    (-1.635983865196982, -1.0994499617414828, 1.784192743996405),
    (1.0575280245058476, -0.6533426963885463, -1.0031164328016928),
    (0.5898525215231389, -1.8795948863777199, 1.0365362640877276),
    (2.6508171916196233, -1.510525712222574, 2.693286910999909),
    (1.0034247186022345, -2.4246123864353275, -0.3489620029931233),
    (2.318879515965106, 1.1847209992921321, -1.0411628155793273),
    (1.403568979980399, -1.6791902667270826, -2.510432582746751),
    (-2.040626393549715, -0.9593988902717685, -0.20884107778769412),
    (-1.4014738302553742, 1.8946584205488417, -1.840233664263033),
    (-2.2231855429367986, -2.4500114907303843, 0.5914080819894791),
    (2.128451426244008, 0.6097274501622785, 2.591930166815901),
    (1.3486881665521206, 2.1633079043597547, 2.576026809451898),
    (0.277116054494118, 2.6260377526065417, -0.030072359527054005),
    (-1.357360905060075, -0.2893277551514357, 0.990233540397182),
    (-1.0146544171976721, 2.420724040849434, -1.4575549483407941),
    (-0.9610299743380812, -1.446879608142436, -0.8673211203342839),
    (-2.9698659976972093, 0.771627264598072, -1.3057037554492903),
    (-2.5914738630723253, 0.700973863538283, -1.9420420783127794),
    (-1.1736696766824624, -0.35467913474329205, -2.0987859536237954),
    (-1.6924268214873899, -0.15400130799873324, -0.14178686951284902),
)


def cmd_dirac_check(args):
    from . import dirac
    def dist(a, b):  # max |a_ij - b_ij|
        return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))

    g = [dirac.gamma(mu) for mu in range(4)]
    anti = max(abs(sum(a[i][k] * b[k][j] + b[i][k] * a[k][j] for k in range(4))
                   - 2 * dirac.METRIC[mu][nu] * (i == j))
               for mu, a in enumerate(g) for nu, b in enumerate(g)
               for i in range(4) for j in range(4))
    m, comp, pol, conj = 1.0, 0.0, 0.0, 0.0
    for p in (dirac.onshell_momentum(k, m) for k in DIRAC_CHECK_PVECS):
        comp = max(comp, dist(dirac.spin_sum(p, m, "u"),
                              dirac.theta_projector(p, +1, m)))
        pol = max(pol, dist(dirac.polarization_sum(p, m),
                            dirac.polarization_sum_closed_form(p, m)))
        v = dirac.charge_conjugate_spinor(dirac.u_spinor(p, 1, m)).components
        conj = max(conj, *(abs(sum((x + m * (i == j)) * c  # (pslash + m) v
                                   for j, (x, c) in enumerate(zip(row, v))))
                           for i, row in enumerate(dirac.slash(p))))
    rows = [[name, fmt(err), fmt(tol), str(err <= tol).lower()]
            for name, err, tol in (
                ("gamma_anticommutators", anti, 1e-14),
                ("spin_sum_completeness", comp, 1e-12),
                ("polarization_sum_closed_form", pol, 1e-12),
                ("charge_conjugation_dirac_eq", conj, 1e-10))]
    return ["check", "max_error", "tolerance", "passed"], rows


def _propagator_rows(args, kind: str):
    from . import propagator
    kvec = parse_vec3(args.kvec)
    k0_values = parse_grid(args.k0_grid) if getattr(args, "k0_grid", None) \
        else [args.k0]
    header = ["q", "m", "k0", "kx", "ky", "kz"]
    if kind == "scalar":
        header += ["value_re", "value_im", "onshell_distance"]
    else:
        header += ["component", "value_re", "value_im", "onshell_distance"]
    rows = []
    for k0 in k0_values:
        k = (k0, *kvec)
        if kind == "scalar":
            pv = propagator.scalar_propagator_momentum(k, args.m, args.q)
            rows.append([fmt(args.q), fmt(args.m), fmt(k0), *map(fmt, kvec),
                         fmt(pv.value.real), fmt(pv.value.imag),
                         fmt(pv.onshell_distance)])
        else:
            fn = (propagator.spinor_propagator_momentum if kind == "spinor"
                  else propagator.photon_propagator_momentum)
            pv = fn(k, args.m, args.q)
            for i in range(4):
                for j in range(4):
                    rows.append([fmt(args.q), fmt(args.m), fmt(k0),
                                 *map(fmt, kvec), f"{i}{j}",
                                 fmt(pv.value[i][j].real),
                                 fmt(pv.value[i][j].imag),
                                 fmt(pv.onshell_distance)])
    return header, rows


def cmd_propagator_residues(args):
    from . import propagator
    kvec = parse_vec3(args.kvec)
    rp, rm = propagator.pole_residues(kvec, args.m, args.q)
    w = propagator.omega(kvec, args.m)
    header = ["q", "m", "omega", "residue_plus", "residue_minus"]
    rows = [[fmt(args.q), fmt(args.m), fmt(w), fmt(rp), fmt(rm)]]
    return header, rows


def cmd_propagator_position(args):
    from . import propagator
    pv = propagator.causal_position(args.t, args.r, args.m, args.q)
    header = ["q", "m", "t", "r", "value_re", "value_im", "quad_error"]
    rows = [[fmt(args.q), fmt(args.m), fmt(args.t), fmt(args.r),
             fmt(pv.value.real), fmt(pv.value.imag), fmt(pv.quad_error)]]
    return header, rows


def cmd_propagator_spacelike(args):
    from . import propagator
    r_values = parse_grid(args.r_grid) if args.r_grid else [args.r]
    header = ["q", "m", "r", "value", "quad_error"]
    rows = []
    for r in r_values:
        pv = propagator.spacelike_q_commutator(r, args.m, args.q)
        rows.append([fmt(args.q), fmt(args.m), fmt(r), fmt(pv.value),
                     fmt(pv.quad_error)])
    return header, rows


def cmd_scatter_moller(args):
    from . import scattering
    kin = scattering.cm_elastic_kinematics(args.energy, args.theta, args.m)
    if args.beta:
        kin = kin.boosted(scattering.Boost(parse_vec3(args.beta)))
    spins = tuple(int(s) for s in args.spins.split(","))
    amp = scattering.moller_amplitude(kin, spins, args.q,
                                      args.strict_paper_mode)
    header = ["q", "m", "energy", "theta", "spins", "amp_re", "amp_im"]
    rows = [[fmt(args.q), fmt(args.m), fmt(args.energy), fmt(args.theta),
             args.spins, fmt(amp.real), fmt(amp.imag)]]
    return header, rows


def cmd_scatter_annihilate(args):
    from . import scattering
    kin = scattering.cm_annihilation_kinematics(args.energy, args.theta, args.m)
    if args.beta:
        kin = kin.boosted(scattering.Boost(parse_vec3(args.beta)))
    f1, f2 = scattering.annihilation_correction_pair(kin, args.q)
    header = ["q", "m", "energy", "theta", "F1", "F2"]
    rows = [[fmt(args.q), fmt(args.m), fmt(args.energy), fmt(args.theta),
             fmt(f1), fmt(f2)]]
    return header, rows


def cmd_scatter_frame_scan(args):
    from . import scattering
    if args.flavor == scattering.PHOTON_LINE:
        kin = scattering.cm_elastic_kinematics(args.energy, args.theta, args.m)
    else:
        kin = scattering.cm_annihilation_kinematics(args.energy, args.theta,
                                                    args.m)
    boosts = [scattering.Boost(parse_vec3(tok))
              for tok in args.betas.split(";")]
    rows_raw = scattering.frame_scan(kin, args.q, boosts, args.flavor)
    header = ["bx", "by", "bz", "F1", "F2"]
    rows = [[*map(fmt, beta), fmt(f1), fmt(f2)] for beta, f1, f2 in rows_raw]
    return header, rows


# ------------------------------------------------------------------ driver

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfield",
        description="q-deformed field quantization toolkit")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="write output to FILE instead of stdout")
    parser.add_argument("--golden", choices=("write", "check"),
                        help="persist or verify a golden file for this run")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_q(p, default=1.0):
        p.add_argument("--q", type=float, default=default)

    p = sub.add_parser("qnum", help="basic number <n>_q")
    add_q(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_qnum)

    p = sub.add_parser("planck", help="deformed occupancy 1/(e^x - q)")
    add_q(p)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=cmd_planck)

    pf = sub.add_parser("fock", help="Fock-space operations")
    fsub = pf.add_subparsers(dest="subcommand", required=True)
    p = fsub.add_parser("vev", help="brute-force vacuum expectation value")
    add_q(p)
    p.add_argument("--ops", required=True,
                   help="operator tokens, e.g. 'a0,a0+' (rightmost acts first)")
    p.add_argument("--n-max", type=int, default=fock.DEFAULT_N_MAX)
    p.set_defaults(func=cmd_fock_vev)

    pw = sub.add_parser("wick", help="q-Wick machinery")
    wsub = pw.add_subparsers(dest="subcommand", required=True)
    p = wsub.add_parser("normal", help="normal-order an operator string")
    add_q(p)
    p.add_argument("--ops", required=True)
    p.set_defaults(func=cmd_wick_normal)
    p = wsub.add_parser("expand", help="pairing-diagram expansion")
    add_q(p)
    p.add_argument("--ops", required=True)
    p.set_defaults(func=cmd_wick_expand)
    p = wsub.add_parser("verify", help="sweep strings against the Fock oracle")
    add_q(p, default=0.7)
    p.add_argument("--max-len", type=int, default=6)
    p.set_defaults(func=cmd_wick_verify)

    pd = sub.add_parser("dirac", help="Dirac algebra self-checks")
    dsub = pd.add_subparsers(dest="subcommand", required=True)
    p = dsub.add_parser("check", help="run the identity battery")
    p.set_defaults(func=cmd_dirac_check)

    pp = sub.add_parser("propagator", help="propagator evaluations")
    psub = pp.add_subparsers(dest="subcommand", required=True)
    for kind in ("scalar", "spinor", "photon"):
        p = psub.add_parser(kind)
        add_q(p)
        p.add_argument("--m", type=float, default=1.0)
        p.add_argument("--k0", type=float, default=0.0)
        p.add_argument("--kvec", default="1,0,0")
        p.add_argument("--k0-grid", help="lo:hi:count sweep over k0")
        p.set_defaults(func=lambda a, kind=kind: _propagator_rows(a, kind))
    p = psub.add_parser("residues")
    add_q(p)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--kvec", default="0,0,0")
    p.set_defaults(func=cmd_propagator_residues)
    p = psub.add_parser("position")
    add_q(p)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.set_defaults(func=cmd_propagator_position)
    p = psub.add_parser("spacelike")
    add_q(p, default=0.5)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--r-grid", help="lo:hi:count sweep over r")
    p.set_defaults(func=cmd_propagator_spacelike)

    ps = sub.add_parser("scatter", help="QED scattering probes")
    ssub = ps.add_subparsers(dest="subcommand", required=True)
    p = ssub.add_parser("moller")
    add_q(p)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--energy", type=float, default=2.0)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--spins", default="1,1,1,1")
    p.add_argument("--beta", help="boost CM kinematics by this velocity")
    p.add_argument("--strict-paper-mode", action="store_true")
    p.set_defaults(func=cmd_scatter_moller)
    p = ssub.add_parser("annihilate")
    add_q(p)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--energy", type=float, default=2.0)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--beta")
    p.set_defaults(func=cmd_scatter_annihilate)
    p = ssub.add_parser("frame-scan")
    add_q(p, default=0.5)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--energy", type=float, default=2.0)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--betas", default="0,0,0;0,0,0.25;0,0,0.5",
                   help="semicolon-separated boost velocities")
    p.add_argument("--flavor", choices=FLAVORS, default=FLAVORS[0])
    p.set_defaults(func=cmd_scatter_frame_scan)

    return parser


def render(header, rows, fmt_kind: str) -> str:
    if fmt_kind == "json":
        import json
        objs = [dict(zip(header, row)) for row in rows]
        return json.dumps(objs, indent=2) + "\n"
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _cells(text: str, fmt_kind: str) -> list:
    """The rows of a rendered table, header first, as lists of cells."""
    if fmt_kind == "json":
        import json
        try:
            objs = json.loads(text)
            return [list(objs[0])] + [[str(v) for v in o.values()]
                                      for o in objs]
        except (ValueError, LookupError, TypeError, AttributeError):
            return []
    return [line.split(",") for line in text.splitlines()]


def first_difference(golden: str, text: str, fmt_kind: str) -> str:
    """Where this run's table first differs from the golden one: the row
    (the header is row 0), the column, both cells and, when both parse as
    numbers, the delta; "" when the two agree cell by cell."""
    new = _cells(text, fmt_kind)
    header = new[0] if new else []
    rows = zip_longest(_cells(golden, fmt_kind), new, fillvalue=())
    for r, (old_row, new_row) in enumerate(rows):
        for c, (was, got) in enumerate(zip_longest(old_row, new_row)):
            if was != got:
                column = header[c] if c < len(header) else f"#{c + 1}"
                where = (f" at row {r}, column {column}: golden {was!r}, "
                         f"got {got!r}")
                try:
                    return f"{where}, delta {fmt(float(got) - float(was))}"
                except (TypeError, ValueError):
                    return where
    return ""


def golden_path(argv, command: str) -> str:
    """Golden file of an invocation: <root>/<command>/<digest>.csv."""
    import hashlib
    root = os.environ.get("QFIELD_GOLDEN_DIR", DEFAULT_GOLDEN_DIR)
    # key on the invocation minus the --golden flag itself, so `write` and
    # `check` runs of the same command resolve to the same file
    keyed = []
    skip = False
    for a in argv:
        if skip:
            skip = False
            continue
        if a == "--golden":
            skip = True
            continue
        if a.startswith("--golden="):
            continue
        keyed.append(a)
    digest = hashlib.sha256(" ".join(keyed).encode()).hexdigest()[:16]
    return os.path.join(root, command, f"{digest}.csv")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_finite_options(args)
        header, rows = args.func(args)
    except QFieldError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    text = render(header, rows, args.format)
    try:
        return _emit(text, argv, args)
    except OSError as exc:  # an unwritable --out or golden path
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _emit(text: str, argv, args) -> int:
    """Write or check the golden file, then write the table to --out or
    stdout; the exit code."""
    if args.golden:
        path = golden_path(argv, args.command)
        if args.golden == "write":
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
        else:
            if not os.path.exists(path):
                print(f"error: no golden file at {path}", file=sys.stderr)
                return 1
            with open(path) as fh:
                golden = fh.read()
            if golden != text:
                print(f"error: output differs from golden {path}"
                      + first_difference(golden, text, args.format),
                      file=sys.stderr)
                return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
