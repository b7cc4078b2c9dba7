"""Command-line front end.

Every subcommand emits a CSV table (header always present, floats at 17
significant digits, a real value in one column and a complex one as a
re/im column pair) so runs are byte-reproducible and suitable for
golden-file testing.  Exit codes: 0 success, 1 computation error (typed
error on stderr), 2 usage error.

A call builds only its command's parser: the parser is read off the
COMMANDS table, and each command's sub-parser adds its options or
subcommands only when argparse parses into it.  Golden-file support lives
in qfield.golden, which only a --golden call loads.  No library layer loads
with the CLI: each command imports the layers it uses, so a qnum or planck
call loads only qcore, and the fock and wick layers load only for fock and
wick commands.  No command needs numpy.
"""
from __future__ import annotations

import argparse
import sys

from .errors import NumericOverflowError, QFieldError, finite

# scattering.PHOTON_LINE and scattering.ELECTRON_LINE, spelled out so that
# building the parser does not import the scattering layer (a test pins
# the two together)
FLAVORS = ("photon_line", "electron_line")


def fmt(x) -> str:
    return "%.17g" % float(x)


def parse_ops(text: str):
    """Parse operator tokens like 'a0,a0+' or 'a+ b1' into LadderOps."""
    from . import fock
    make = {"a": (fock.a, fock.a_dag), "b": (fock.b, fock.b_dag)}
    ops = []
    for tok in text.replace(",", " ").split():
        dagger = tok.endswith("+")
        body = tok[:-1] if dagger else tok
        if not body or body[0] not in make:
            raise ValueError(f"bad operator token {tok!r}")
        mode = int(body[1:]) if len(body) > 1 else 0
        ops.append(make[body[0]][dagger](mode))
    return tuple(ops)


def ops_repr(ops) -> str:
    return " ".join(repr(op) for op in ops)


def check_finite_options(args):
    """Reject a nan or infinite value in any float option."""
    for name, value in vars(args).items():
        if isinstance(value, float):
            finite(value, "--" + name.replace("_", "-"))


def parse_vec3(text: str) -> tuple:
    parts = tuple(finite(p, f"component of {text!r}")
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
    lo = finite(lo, f"grid start in {text!r}")
    hi = finite(hi, f"grid end in {text!r}")
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
    from .qcore import basic_number
    header = ["q", "n", "basic_number"]
    rows = [[fmt(args.q), str(args.n), fmt(basic_number(args.q, args.n))]]
    return header, rows


def cmd_planck(args):
    from .qcore import q_occupancy
    header = ["x", "q", "occupancy"]
    rows = [[fmt(args.x), fmt(args.q), fmt(q_occupancy(args.x, args.q))]]
    return header, rows


def cmd_fock_vev(args):
    from . import fock
    ops = parse_ops(args.ops)
    val = fock.vev(ops, args.q)
    header = ["ops", "q", "vev"]
    rows = [[ops_repr(ops), fmt(args.q), fmt(val)]]
    return header, rows


def cmd_wick_normal(args):
    from . import wick
    ops = parse_ops(args.ops)
    nf = wick.normal_order(ops, args.q)
    header = ["term", "coeff", "q_power"]
    rows = []
    for term in sorted(nf.terms, key=lambda t: (len(t), repr(t))):
        poly = nf.terms[term]
        p = poly.pure_power()
        rows.append([ops_repr(term) or "1", fmt(poly(args.q)),
                     "" if p is None else str(p)])
    return header, rows


def cmd_wick_expand(args):
    from . import wick
    ops = parse_ops(args.ops)
    diagrams = wick.wick_expand(ops, args.q)
    header = ["pairs", "unpaired", "crossings", "coeff"]
    rows = []
    for d in diagrams:
        rows.append(["|".join(f"{i}-{j}" for i, j in d.pairs) or "-",
                     "|".join(str(i) for i in d.unpaired) or "-",
                     str(d.crossings), fmt(d.coefficient)])
    return header, rows


def cmd_wick_verify(args):
    from . import fock, wick
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


def cmd_dirac_check(args):
    from .dirac import identity_checks
    rows = [[name, fmt(err), fmt(tol), str(err <= tol).lower()]
            for name, err, tol in identity_checks()]
    return ["check", "max_error", "tolerance", "passed"], rows


def cmd_propagator_momentum(args):
    from . import propagator
    kind = args.subcommand  # scalar, spinor or photon
    kvec = parse_vec3(args.kvec)
    k0_values = parse_grid(args.k0_grid) if args.k0_grid else [args.k0]
    header = ["q", "m", "k0", "kx", "ky", "kz"]
    if kind == "scalar":
        header += ["value_re", "value_im", "onshell_distance"]
    else:
        header += ["component", "value_re", "value_im", "onshell_distance"]
    fn = {"scalar": propagator.scalar_propagator_momentum,
          "spinor": propagator.spinor_propagator_momentum,
          "photon": propagator.photon_propagator_momentum}[kind]
    rows = []
    for k0 in k0_values:
        pv = fn((k0, *kvec), args.m, args.q)
        # the value can be in range where its |k^2 - m^2| column is not
        if pv.onshell_distance == float("inf"):
            raise NumericOverflowError(
                f"onshell_distance |k^2 - m^2| overflows at k0={k0}")
        if kind == "scalar":
            rows.append([fmt(args.q), fmt(args.m), fmt(k0), *map(fmt, kvec),
                         fmt(pv.value.real), fmt(pv.value.imag),
                         fmt(pv.onshell_distance)])
        else:
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

def _q(default=1.0):
    return "--q", {"type": float, "default": default}


_Q = _q()
_M = "--m", {"type": float, "default": 1.0}
_OPS = "--ops", {"required": True, "help": "operator tokens, e.g. 'a0,a0+' "
                 "(rightmost acts first)"}
_KINEMATICS = (_M, ("--energy", {"type": float, "default": 2.0}),
               ("--theta", {"type": float, "default": 1.0}))
_MOMENTUM = (_Q, _M, ("--k0", {"type": float, "default": 0.0}),
             ("--kvec", {"default": "1,0,0"}),
             ("--k0-grid", {"help": "lo:hi:count sweep over k0"}))

# Each command maps to its help and either its handler and options, as
# (flag, add_argument keywords) pairs, or a table of its subcommands.  A
# help of None leaves the command out of its group's help listing.
COMMANDS = {
    "qnum": ("basic number <n>_q", cmd_qnum,
             (_Q, ("--n", {"type": int, "required": True}))),
    "planck": ("deformed occupancy 1/(e^x - q)", cmd_planck,
               (_Q, ("--x", {"type": float, "required": True}))),
    "fock": ("Fock-space operations", {
        "vev": ("vacuum expectation value by ladder steps", cmd_fock_vev,
                (_Q, _OPS))}),
    "wick": ("q-Wick machinery", {
        "normal": ("normal-order an operator string", cmd_wick_normal,
                   (_Q, _OPS)),
        "expand": ("pairing-diagram expansion", cmd_wick_expand,
                   (_Q, _OPS)),
        "verify": ("sweep strings against the Fock oracle", cmd_wick_verify,
                   (_q(0.7), ("--max-len", {"type": int, "default": 6})))}),
    "dirac": ("Dirac algebra self-checks", {
        "check": ("run the identity battery", cmd_dirac_check, ())}),
    "propagator": ("propagator evaluations", {
        "scalar": (None, cmd_propagator_momentum, _MOMENTUM),
        "spinor": (None, cmd_propagator_momentum, _MOMENTUM),
        "photon": (None, cmd_propagator_momentum, _MOMENTUM),
        "residues": (None, cmd_propagator_residues,
                     (_Q, _M, ("--kvec", {"default": "0,0,0"}))),
        "position": (None, cmd_propagator_position, (
            _Q, _M, ("--t", {"type": float, "required": True}),
            ("--r", {"type": float, "required": True}))),
        "spacelike": (None, cmd_propagator_spacelike, (
            _q(0.5), _M, ("--r", {"type": float, "default": 1.0}),
            ("--r-grid", {"help": "lo:hi:count sweep over r"})))}),
    "scatter": ("QED scattering probes", {
        "moller": (None, cmd_scatter_moller, (
            _Q, *_KINEMATICS, ("--spins", {"default": "1,1,1,1"}),
            ("--beta", {"help": "boost CM kinematics by this velocity"}),
            ("--strict-paper-mode", {"action": "store_true"}))),
        "annihilate": (None, cmd_scatter_annihilate,
                       (_Q, *_KINEMATICS, ("--beta", {}))),
        "frame-scan": (None, cmd_scatter_frame_scan, (
            _q(0.5), *_KINEMATICS,
            ("--betas", {"default": "0,0,0;0,0,0.25;0,0,0.5",
                         "help": "semicolon-separated boost velocities"}),
            ("--flavor", {"choices": FLAVORS, "default": FLAVORS[0]})))}),
}


class _LazyParser(argparse.ArgumentParser):
    """The parser of one COMMANDS entry.  It adds its options, or registers
    its subcommands, the first time argparse parses into it, which argparse
    does through parse_known_args; so a call builds only the parsers on its
    own path, and --help and usage errors still come from argparse."""

    def __init__(self, *args, entry=(), **kwargs):
        super().__init__(*args, **kwargs)
        self._entry = entry

    def parse_known_args(self, args=None, namespace=None):
        entry, self._entry = self._entry, ()
        if len(entry) == 1:  # a table of subcommands
            _add_commands(self, entry[0], "subcommand")
        elif entry:  # a handler and its options
            handler, options = entry
            for flag, kwargs in options:
                self.add_argument(flag, **kwargs)
            self.set_defaults(func=handler)
        return super().parse_known_args(args, namespace)


def _add_commands(parser, table, dest: str):
    sub = parser.add_subparsers(dest=dest, required=True,
                                parser_class=_LazyParser)
    for name, (help_text, *entry) in table.items():
        if help_text is None:
            sub.add_parser(name, entry=entry)
        else:
            sub.add_parser(name, help=help_text, entry=entry)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfield",
        description="q-deformed field quantization toolkit")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="write output to FILE instead of stdout")
    parser.add_argument("--golden", choices=("write", "check"),
                        help="persist or verify a golden file for this run")
    _add_commands(parser, COMMANDS, "command")
    return parser


def render(header, rows, fmt_kind: str) -> str:
    if fmt_kind == "json":
        import json
        objs = [dict(zip(header, row)) for row in rows]
        return json.dumps(objs, indent=2) + "\n"
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


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
        from .golden import write_or_check
        if write_or_check(text, argv, args):
            return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
