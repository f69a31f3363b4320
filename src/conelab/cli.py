"""Command-line pipelines with deterministic reports.

Every pipeline writes report.json (sorted keys, no timestamps; identical
arguments and seed give byte-identical bytes) plus CSV tables; wall-clock
metadata goes to a run_meta.json sidecar.  Each `run_<command>` returns
its report; `main` tags it with the command and maps it to the exit code:
0 PASS, 1 error, 2 FAIL, 3 INCONCLUSIVE.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path


from . import converge, curvature, metricspace, model2d, transport, warp
from .cone import GeneralizedCone
from .errors import ConelabError

EXIT_PASS, EXIT_ERROR, EXIT_FAIL, EXIT_INCONCLUSIVE = 0, 1, 2, 3


def _error_code(exc: Exception) -> str:
    name = type(exc).__name__
    out = []
    for ch in name:
        if ch.isupper() and out:
            out.append("_")
        out.append(ch.upper())
    return "".join(out)


def _write_report(outdir: Path, report: dict, t_start: float) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "report.json", "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2, allow_nan=True)
        fh.write("\n")
    with open(outdir / "run_meta.json", "w") as fh:
        json.dump({"started": t_start, "elapsed": time.time() - t_start},
                  fh, indent=2)


def _write_csv(outdir: Path, name: str, header, rows) -> None:
    tdir = outdir / "tables"
    tdir.mkdir(parents=True, exist_ok=True)
    with open(tdir / name, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _read(path: str, decode):
    """decode(the JSON contents of the input file at path).  A TypeError
    or ValueError raised while decoding, such as a null where a number
    belongs or a fractional grid window, becomes a ValueError that names
    the file."""
    with open(path) as fh:
        obj = json.load(fh)
    try:
        return decode(obj)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_cone(path: str) -> GeneralizedCone:
    return _read(path, GeneralizedCone.from_json)


def _load_cones(spec) -> list:
    return [GeneralizedCone.from_json(c) for c in spec["cones"]]


def _on_grid(point, cone: GeneralizedCone):
    t, x = point
    if not (0 <= t < cone.f.n and 0 <= x < cone.X.n):
        raise ValueError(f"grid point {t},{x} lies outside the cone's "
                         f"{cone.f.n} x {cone.X.n} grid")
    return t, x


def _parse_point(s: str, cone: GeneralizedCone):
    return _on_grid([int(v) for v in s.split(",")], cone)


def _load_measure(path: str, cone: GeneralizedCone):
    mu = _read(path, transport.DiscreteMeasure.from_json)
    for point in mu.points:
        _on_grid(point, cone)
    return mu


def _exit_code(report: dict) -> int:
    """The one exit rule: the report's verdict, or tcbb's boolean pass;
    a report with neither (tau, geodesic, ot, gh, preset) passes."""
    verdict = report.get("verdict", report.get("pass", True))
    if verdict in ("PASS", True):
        return EXIT_PASS
    if verdict == "INCONCLUSIVE":
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


# -- pipelines ----------------------------------------------------------------


def run_tau(args, outdir: Path) -> dict:
    if (args.p is None) != (args.q is None):
        raise ValueError("tau needs both --p and --q, or neither")
    cone = _load_cone(args.cone)
    report = {"time_points": cone.f.n, "dist_points": cone.m,
              "window": cone.window}
    # the rows first, the width after: bracket_width then reads the pair's
    # one stored row of each table, or the two stored tables, in place
    if args.p is not None:
        p, q = _parse_point(args.p, cone), _parse_point(args.q, cone)
        lo = cone.signed_separation(p, q)
        hi = cone.signed_separation_upper(p, q)
        report["pair"] = {"p": list(p), "q": list(q), "lo": lo, "hi": hi}
        rows = [(cone.f.ts[p[0]], cone.f.ts[q[0]],
                 cone.X.dist[p[1], q[1]], lo, hi)]
        key, sources = "rows_bracket_width", [p[0]]
    else:
        rows = cone.export_rows()
        key, sources = "bracket_width", None
    _write_csv(outdir, "tau.csv", ("s", "t", "r", "lo", "hi"), rows)
    report[key] = cone.bracket_width(sources)
    return report


def run_geodesic(args, outdir: Path) -> dict:
    cone = _load_cone(args.cone)
    p, q = _parse_point(args.p, cone), _parse_point(args.q, cone)
    geo = cone.maximizer(p, q)
    _write_csv(outdir, "geodesic.csv", ("time_index", "fiber_distance"),
               geo.states)
    return {"tau_length": geo.tau_length, "character": geo.character(),
            "states": len(geo.states)}


def run_tcbb(args, outdir: Path) -> dict:
    return model2d.tcbb_verify(_load_cone(args.cone), K=args.K,
                               samples=args.samples, tol=args.tol,
                               seed=args.seed)


def run_ot(args, outdir: Path) -> dict:
    cone = _load_cone(args.cone)
    mu0, mu1 = _load_measure(args.mu0, cone), _load_measure(args.mu1, cone)
    coupling = transport.solve_lp(cone, mu0, mu1, args.p)
    slack = transport.check_cyclical_monotonicity(
        cone, coupling, args.p, seed=args.seed)
    rows = [(i, j, coupling.table[i, j]) for i, j in coupling.support()]
    _write_csv(outdir, "coupling.csv", ("i", "j", "mass"), rows)
    return {"p": args.p, "p_value": coupling.p_value,
            "ell_p": coupling.ell_p, "support": len(rows),
            "cyclical_slack": slack,
            "rows_bracket_width": cone.bracket_width([t for t, _ in mu0.points])}


def run_tcd(args, outdir: Path) -> dict:
    cone = _load_cone(args.cone)
    mu0, mu1 = _load_measure(args.mu0, cone), _load_measure(args.mu1, cone)
    return transport.tcd_verify(cone, mu0, mu1, args.p, args.K, args.N,
                                flavor=args.flavor, tol=args.tol)


def run_tmcp(args, outdir: Path) -> dict:
    cone = _load_cone(args.cone)
    mu0 = _load_measure(args.mu0, cone)
    return transport.tmcp_verify(cone, mu0, _parse_point(args.x1, cone),
                                 args.K, args.N, tol=args.tol)


def run_gh(args, outdir: Path) -> dict:
    A = _read(args.A, metricspace.FiniteMetricSpace.from_json)
    B = _read(args.B, metricspace.FiniteMetricSpace.from_json)
    lo, up, wit = metricspace.gh_distance(A, B, args.mode)
    return {"mode": args.mode, "lower": lo, "upper": up,
            "witness_distortion": wit.distortion,
            "witness_pairs": [list(p) for p in wit.pairs]}


def _load_sequence(path: str):
    """The cone sequence of a sequence file, covered to its coverDepth
    (default 2), and the file's contents."""
    cones, limit, spec = _read(path, lambda spec: (
        _load_cones(spec), GeneralizedCone.from_json(spec["limit"]), spec))
    depth = spec.get("coverDepth", 2)
    return converge.cone_sequence(cones, limit, depth=depth), spec


def run_ellconv(args, outdir: Path) -> dict:
    seq, spec = _load_sequence(args.seq)
    rep = converge.ell_converge_check(seq, schedule=spec.get("schedule") or None)
    rows = [(key, v["eps1"], v["eps2"]) for key, v in rep["moduli"].items()]
    _write_csv(outdir, "moduli.csv", ("i_k_l", "eps1", "eps2"), rows)
    return rep


def run_measured(args, outdir: Path) -> dict:
    seq, _ = _load_sequence(args.seq)
    dists = converge.measured_converge_check(seq, args.k)
    _write_csv(outdir, "measured.csv", ("i", "w1"), list(enumerate(dists)))
    # PASS on a non-increasing W1 trend; a finite run never certifies FAIL
    trend = dists[0] - dists[-1] if dists else 0.0
    return {"k": args.k, "w1": dists,
            "verdict": transport.verdict(math.inf, trend, 1e-12)}


def run_precompact(args, outdir: Path) -> dict:
    cones = _read(args.seq, _load_cones)
    return converge.precompact_harness(cones, K=args.K, N=args.N, D=args.D,
                                       depth=args.depth)


def run_tangent(args, outdir: Path) -> dict:
    cone = _load_cone(args.cone)
    eps = [float(e) for e in args.eps.split(",")]
    return converge.tangent_cone(cone, _parse_point(args.point, cone), eps,
                                 depth=args.depth)


def run_ricci(args, outdir: Path) -> dict:
    f = _read(args.warp, warp.WarpingFunction.from_json)
    rep = curvature.ricci_reduction(f, args.K, args.n, args.fiber_bound)
    d = curvature.oneill_diagnostics(f, args.n)
    _write_csv(outdir, "oneill.csv", ("t", "time_time", "mixed", "tangential"),
               zip(d["t"], d["time_time"], d["mixed"], d["tangential"]))
    return rep.to_json()


def run_sectional(args, outdir: Path) -> dict:
    f = _read(args.warp, warp.WarpingFunction.from_json)
    return curvature.sectional_reduction(f, args.K, args.fiber_bound).to_json()


def run_preset(args, outdir: Path) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    if args.kind == "fms":
        if args.name == "segment":
            obj = metricspace.segment(args.L, args.n).to_json()
        elif args.name == "circleArc":
            obj = metricspace.circle_arc(args.radius, args.angle, args.n).to_json()
        else:
            raise ValueError(f"unknown fiber preset {args.name!r}")
    else:
        obj = warp.preset(args.name, args.a, args.b, args.n,
                          param=args.param).to_json()
    path = outdir / f"{args.name}.json"
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return {"written": str(path)}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="conelab",
                                 description="warped-cone geometry lab")
    ap.add_argument("--out", default="out", help="output directory")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("tau", run_tau)
    p.add_argument("--cone", required=True)
    p.add_argument("--p")
    p.add_argument("--q")

    p = add("geodesic", run_geodesic)
    p.add_argument("--cone", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)

    p = add("tcbb", run_tcbb)
    p.add_argument("--cone", required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--tol", type=float, default=0.02)
    p.add_argument("--seed", type=int, required=True)

    p = add("ot", run_ot)
    p.add_argument("--cone", required=True)
    p.add_argument("--mu0", required=True)
    p.add_argument("--mu1", required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, required=True)

    p = add("tcd", run_tcd)
    p.add_argument("--cone", required=True)
    p.add_argument("--mu0", required=True)
    p.add_argument("--mu1", required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--flavor", choices=("entropic", "renyi"), default="entropic")
    p.add_argument("--tol", type=float, default=0.05)

    p = add("tmcp", run_tmcp)
    p.add_argument("--cone", required=True)
    p.add_argument("--mu0", required=True)
    p.add_argument("--x1", required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--tol", type=float, default=0.05)

    p = add("gh", run_gh)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--mode", choices=("exact", "heuristic"), default="heuristic")

    p = add("ellconv", run_ellconv)
    p.add_argument("--seq", required=True)

    p = add("measured", run_measured)
    p.add_argument("--seq", required=True)
    p.add_argument("--k", type=int, default=1)

    p = add("precompact", run_precompact)
    p.add_argument("--seq", required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--depth", type=int, default=2)

    p = add("tangent", run_tangent)
    p.add_argument("--cone", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--eps", required=True, help="comma-separated list")
    p.add_argument("--depth", type=int, default=1)

    p = add("ricci", run_ricci)
    p.add_argument("--warp", required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fiber-bound", dest="fiber_bound", type=float, required=True)

    p = add("sectional", run_sectional)
    p.add_argument("--warp", required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--fiber-bound", dest="fiber_bound", type=float, required=True)

    p = add("preset", run_preset)
    p.add_argument("kind", choices=("fms", "warp"))
    p.add_argument("name")
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--n", type=int, default=11)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--angle", type=float, default=1.0)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--param", type=float, default=None)
    return ap


def main(argv=None) -> int:
    """Run one pipeline; writes report.json (+ tables) under --out.

    Exit status: 0 PASS, 1 error, 2 FAIL, 3 INCONCLUSIVE."""
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    t0 = time.time()
    try:
        report = args.fn(args, out)
    except (ConelabError, ValueError, OSError, KeyError) as exc:
        _write_report(out, {"error": _error_code(exc), "message": str(exc)}, t0)
        print(f"error: {_error_code(exc)}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    report["command"] = args.command
    _write_report(out, report, t0)
    print(json.dumps({k: report[k] for k in sorted(report)
                      if k in ("command", "verdict", "pass", "min_margin",
                               "worst_margin", "lower", "upper", "ell_p")},
                     sort_keys=True))
    return _exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
