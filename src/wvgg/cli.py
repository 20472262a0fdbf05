"""Command-line surface: config-driven runs emitting JSON reports and CSV curves.

Subcommands (from the config file or the command line):

* classify       -- decision-ladder report as JSON
* density        -- radial density curves as CSV, one file per direction
* verify-lemmas  -- matrix/Bessel invariant suites, pass/fail table
* usp            -- infimum estimate of the exponent quantity
* counterexample -- tuned self-decomposable construction + scan verdict
* char-exponent  -- characteristic exponent tabulated over a theta grid

Exit codes: 0 success, 1 invalid configuration, 2 numeric failure (divergence
where finiteness is required, or a failed verification).  Sphere sampling is
seeded and the seed is recorded in every report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bessel, linalg
from .density import default_r_grid, density_curve, char_exponent, write_density_csv
from .engine import (Budget, VerificationError, build_sd_counterexample,
                     classify, _sphere_grid)
from .geometry import QuantityContext, usp_infimum
from .linalg import CovMatrix
from .measures import WvggParams, params_from_json
from .quadrature import DivergentIntegral

COMMANDS = ("classify", "density", "verify-lemmas", "usp", "counterexample",
            "char-exponent")


class ConfigError(Exception):
    pass


def _finite_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and -math.inf < v < math.inf


def _integer(lo: int):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _vector(v) -> bool:
    return isinstance(v, list) and all(map(_finite_number, v))


def _vectors(v) -> bool:
    return isinstance(v, list) and all(map(_vector, v))


# the keys each config block may hold, each with the values it accepts
GRIDS = {"r_min": _finite_number, "r_max": _finite_number, "r_count": _integer(2),
         "s_count": _integer(1), "s_list": _vectors, "theta_grid": _vectors}
TOLERANCES = {"s_samples": _integer(1), "margin": _finite_number,
              "time_limit_s": lambda v: v is None or (_finite_number(v) and v >= 0)}
COUNTEREXAMPLE = {"n": _integer(2), "c": lambda v: _finite_number(v) and 0.5 <= v <= 1.0,
                  "alpha": _vector, "mu": _vector, "sigma": _vectors, "d": _vector}


def _check_block(name: str, block, table: dict, required=()) -> dict:
    """The block, once it holds every ``required`` key and only keys of
    ``table``, each with a value its predicate accepts."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a JSON object")
    for key in required:
        if key not in block:
            raise ConfigError(f"{name}: missing key {key!r}")
    for key, v in block.items():
        if key not in table:
            raise ConfigError(f"{name}: unknown key {key!r}")
        if not table[key](v):
            raise ConfigError(f"{name}: {key} = {v!r} is not a valid value")
    return block


@dataclass
class RunConfig:
    command: str
    params: WvggParams | None = None
    output: str = "out_"
    seed: int = 0
    r_min: float = 1e-4
    r_max: float = 50.0
    r_count: int = 200
    s_count: int = 8
    s_list: list | None = None
    x: list | None = None
    tolerances: dict = field(default_factory=dict)
    counterexample: dict = field(default_factory=dict)
    theta_grid: list | None = None

    @property
    def r_grid(self):
        return default_r_grid(self.r_min, self.r_max, self.r_count)


def load_config(path: str, command: str | None, seed: int | None,
                out: str | None) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc

    cmd = command or raw.get("command")
    if cmd not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {cmd!r}")

    params = None
    if "params_file" in raw:
        try:
            with open(raw["params_file"]) as fh:
                params = params_from_json(json.load(fh))
        except FileNotFoundError as exc:
            raise ConfigError(f"params file not found: {raw['params_file']}") from exc
    elif "params" in raw:
        params = params_from_json(raw["params"])

    grids = _check_block("grids", raw.get("grids", {}), GRIDS)
    seed = raw.get("seed", 0) if seed is None else seed
    if not _integer(0)(seed):
        raise ConfigError(f"seed = {seed!r} is not a nonnegative integer")
    cfg = RunConfig(
        command=cmd,
        params=params,
        output=out if out is not None else raw.get("output", "out_"),
        seed=seed,
        r_min=float(grids.get("r_min", 1e-4)),
        r_max=float(grids.get("r_max", 50.0)),
        # classify scans 120 radii and counterexample verifies 32 directions
        # unless the config says otherwise
        r_count=grids.get("r_count", 120 if cmd == "classify" else 200),
        s_count=grids.get("s_count", 32 if cmd == "counterexample" else 8),
        s_list=grids.get("s_list"),
        x=raw.get("x"),
        tolerances=_check_block("tolerances", raw.get("tolerances", {}), TOLERANCES),
        counterexample=(_check_block("counterexample", raw["counterexample"],
                                     COUNTEREXAMPLE, ("n", "alpha", "mu", "sigma"))
                        if "counterexample" in raw else {}),
        theta_grid=grids.get("theta_grid"),
    )
    if not 0.0 < cfg.r_min < cfg.r_max < math.inf:
        raise ConfigError("grids need 0 < r_min < r_max < inf")
    if params is not None:
        vectors = [("s_list", s) for s in cfg.s_list or []]
        vectors += [("theta_grid", t) for t in cfg.theta_grid or []]
        vectors += [("x", cfg.x)] if cfg.x is not None else []
        for key, v in vectors:
            arr = np.asarray(v, dtype=float)
            if arr.shape != (params.n,) or not np.all(np.isfinite(arr)):
                raise ConfigError(f"{key}: {v!r} is not a finite vector of length {params.n}")
            if key == "s_list" and not np.any(arr):
                raise ConfigError("s_list: a direction must be nonzero")
        # classify and char-exponent decide or integrate a singular Sigma
        if cmd in ("density", "usp") and not params.sigma.invertible:
            raise ConfigError(f"{cmd} needs an invertible sigma")
    spec = cfg.counterexample
    if spec:
        n = spec["n"]
        for key in ("alpha", "mu", "d"):
            if key in spec and len(spec[key]) != n:
                raise ConfigError(f"counterexample: {key} must have length n = {n}")
        if len(spec["sigma"]) != n or any(len(row) != n for row in spec["sigma"]):
            raise ConfigError(f"counterexample: sigma must be {n} x {n}")
    return cfg


def _require_params(cfg: RunConfig) -> WvggParams:
    if cfg.params is None:
        raise ConfigError(f"command {cfg.command!r} needs a params block")
    return cfg.params


def _directions(cfg: RunConfig, n: int) -> list[np.ndarray]:
    if cfg.s_list:
        out = []
        for s in cfg.s_list:
            v = np.asarray(s, dtype=float)
            out.append(v / np.linalg.norm(v))
        return out
    return _sphere_grid(n, cfg.s_count)


def _dump_json(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def cmd_classify(cfg: RunConfig) -> int:
    params = _require_params(cfg)
    budget = Budget(seed=cfg.seed,
                    s_samples=int(cfg.tolerances.get("s_samples", 64)),
                    r_grid=cfg.r_grid,
                    time_limit_s=cfg.tolerances.get("time_limit_s"))
    report = classify(params, budget)
    path = f"{cfg.output}report.json"
    _dump_json(report.to_json(), path)
    print(report.dumps())
    print(f"wrote {path}")
    return 0


def cmd_density(cfg: RunConfig) -> int:
    params = _require_params(cfg)
    rs = cfg.r_grid
    paths = []
    for i, s in enumerate(_directions(cfg, params.n)):
        curve = density_curve(params, s, rs)
        path = f"{cfg.output}density_{i:02d}.csv"
        write_density_csv(curve, path)
        paths.append(path)
    print(f"wrote {len(paths)} curve(s): {', '.join(paths)}")
    return 0


def cmd_usp(cfg: RunConfig) -> int:
    params = _require_params(cfg)
    ctx = QuantityContext(params.mu, params.sigma)
    x = np.asarray(cfg.x, dtype=float) if cfg.x is not None else params.mu
    est = usp_infimum(ctx, x)
    obj = {"value": est.value, "argmin_v": est.argmin_v.tolist(),
           "permutation": est.permutation, "boundary": est.boundary,
           "certified_positive": est.certified_positive,
           "uncertainty": est.uncertainty, "seed": cfg.seed}
    _dump_json(obj, f"{cfg.output}usp.json")
    print(json.dumps(obj, sort_keys=True, indent=2))
    return 0


def cmd_counterexample(cfg: RunConfig) -> int:
    spec = cfg.counterexample
    if not spec:
        raise ConfigError("counterexample command needs a 'counterexample' block "
                          "(n, c, alpha, mu, sigma, optional d)")
    n = int(spec["n"])
    sigma = CovMatrix(np.asarray(spec["sigma"], dtype=float))
    cex = build_sd_counterexample(
        n, float(spec.get("c", 0.5)),
        np.asarray(spec.get("d", [0.0] * n), dtype=float),
        np.asarray(spec["alpha"], dtype=float),
        np.asarray(spec["mu"], dtype=float), sigma,
        s_count=cfg.s_count,
        r_grid=cfg.r_grid,
        margin_tol=float(cfg.tolerances.get("margin", 1e-10)))
    from .measures import measure_to_json
    obj = {"a": cex.a, "b": cex.b, "g": cex.g,
           "E_bar": cex.e_bar, "h": cex.h, "a_low": cex.a_low, "b_low": cex.b_low,
           "U": measure_to_json(cex.U),
           "verified_nonincreasing": all(v.nonincreasing for v in cex.verification),
           "directions_scanned": len(cex.verification), "seed": cfg.seed}
    _dump_json(obj, f"{cfg.output}counterexample.json")
    print(json.dumps(obj, sort_keys=True, indent=2))
    return 0


def cmd_char_exponent(cfg: RunConfig) -> int:
    params = _require_params(cfg)
    n = params.n
    if cfg.theta_grid:
        thetas = [np.asarray(t, dtype=float) for t in cfg.theta_grid]
    else:
        thetas = []
        for scale in (0.5, 1.0, 2.0):
            for k in range(min(n, 2)):
                e_k = np.zeros(n)
                e_k[k] = scale
                thetas.append(e_k)
            thetas.append(np.full(n, scale))
    path = f"{cfg.output}char_exponent.csv"
    with open(path, "w") as fh:
        fh.write(",".join(f"theta_{k+1}" for k in range(n)) + ",re_psi,im_psi\n")
        for th in thetas:
            psi = char_exponent(params, th)
            fields = [f"{v:.17g}" for v in th] + [f"{psi.real:.17g}", f"{psi.imag:.17g}"]
            fh.write(",".join(fields) + "\n")
    print(f"wrote {path} ({len(thetas)} grid points)")
    return 0


def _lemma_rows(seed: int) -> list[tuple[str, bool]]:
    rng = np.random.default_rng(seed)
    rows: list[tuple[str, bool]] = []

    for n in range(1, 7):
        inf_v, sup_v = linalg.xi_extrema(n)
        ok = (inf_v, sup_v) == (n + 2, 2 ** (n + 1))
        rows.append((f"xi_extrema n={n}: inf={inf_v} sup={sup_v}", ok))

    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        v = rng.uniform(0.0, 1.0, n - 1)
        if linalg.upsilon_matrix(v).eig_min < -1e-9:
            ok = False
    rows.append(("upsilon nonnegative definite (1000 draws)", ok))

    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        u = rng.uniform(0.05, 5.0, n)
        sig = linalg.random_spd(rng, n)
        ss = linalg.sigma_sym(u, sig)
        theta_prod = linalg.theta_matrix(u).entries * sig.entries
        if ss.eig_min <= 0 or np.max(np.abs(2 * ss.entries - theta_prod)) > 1e-12:
            ok = False
    rows.append(("sigma_sym positive definite, 2*sym == theta*Sigma (1000 draws)", ok))

    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        v = rng.uniform(0.0, 1.0, n - 1)
        sig = linalg.random_spd(rng, n, min_det=1e-6)
        det = abs(np.linalg.det(linalg.delta_matrix(v) * sig.entries))
        if det <= 1e-12 * max(1.0, abs(sig.det)):
            ok = False
    rows.append(("delta*Sigma invertible (1000 draws)", ok))

    ok = True
    for _ in range(10000):
        n = int(rng.integers(1, 6))
        u = rng.uniform(0.05, 5.0, n)
        sig = linalg.random_spd(rng, n, min_det=1e-8)
        r = linalg.oppenheim_ratio(sig, u)
        if not (r.lower <= r.ratio * (1 + 1e-10) and r.ratio <= r.upper * (1 + 1e-10)):
            ok = False
    rows.append(("oppenheim bounds (10000 draws)", ok))

    rs = np.geomspace(1e-3, 30.0, 50)
    closed = np.sqrt(math.pi / 2.0) * np.exp(-rs)
    mine = bessel.kappa_grid(0.5, rs)
    rows.append(("bessel half-order closed form (50 pts, 1e-10 rel)",
                 bool(np.max(np.abs(mine - closed) / closed) <= 1e-10)))

    ok = all(bessel.bessel_derivative_check(nu, w) <= 1e-6
             for nu in (1.0, 1.5, 2.0) for w in (0.3, 1.0, 2.0, 10.0))
    rows.append(("bessel derivative identity residual <= 1e-6", ok))

    ok = True
    for nu in (0.5, 1.0, 2.0):
        gaunt = math.sqrt(math.pi) * math.gamma(nu + 0.5) / math.gamma(nu)
        for r in np.geomspace(0.05, 20.0, 12):
            if bessel.bessel_tail(nu, float(r)) > gaunt * bessel.kappa_bessel(nu, float(r)) * (1 + 1e-10):
                ok = False
    rows.append(("tail bound <= sqrt(pi)Gamma(nu+1/2)/Gamma(nu) kappa_nu", ok))

    ts = np.geomspace(1e-3, 30.0, 60)
    k0 = bessel.kappa_grid(0.0, ts)
    k1 = bessel.kappa_grid(1.0, ts) / ts
    lower = ts / (1.0 + np.sqrt(1.0 + ts * ts))
    rows.append(("K0/K1 ratio bound on (0,30]", bool(np.all(k0 / k1 > lower))))
    return rows


def cmd_verify_lemmas(cfg: RunConfig) -> int:
    rows = _lemma_rows(cfg.seed)
    width = max(len(r[0]) for r in rows)
    failures = 0
    lines = []
    for name, ok in rows:
        status = "PASS" if ok else "FAIL"
        lines.append(f"{name:<{width}}  {status}")
        if not ok:
            failures += 1
    table = "\n".join(lines)
    print(table)
    with open(f"{cfg.output}lemmas.txt", "w") as fh:
        fh.write(table + "\n")
    if failures:
        print(f"{failures} check(s) FAILED")
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wvgg",
        description="Self-decomposability diagnostics for weak variance "
                    "generalised gamma convolution processes")
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="overrides the command in the config file")
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output path prefix")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.command, args.seed, args.out)
    except (ConfigError, ValueError, KeyError, linalg.DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    handlers = {
        "classify": cmd_classify,
        "density": cmd_density,
        "verify-lemmas": cmd_verify_lemmas,
        "usp": cmd_usp,
        "counterexample": cmd_counterexample,
        "char-exponent": cmd_char_exponent,
    }
    try:
        return handlers[cfg.command](cfg)
    except (ConfigError, linalg.DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergentIntegral, VerificationError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
