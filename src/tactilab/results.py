"""Run results: one trial's outcome, a run's mode → seed → trial map with its
JSON form, and the byte-stable report files."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import Mode
from .errors import SchemaError


@dataclass
class TrialResult:
    """One trial (one mode or ablation variant at one seed)."""

    curve: list[float]
    decisions: list[dict]
    gamma_trace: list[dict]
    records: list[dict]


@dataclass
class RunResult:
    config: dict
    config_hash: str
    modes: list[str]
    trials: dict[str, dict[int, TrialResult]]  # mode -> seed -> trial
    failures: list[str]
    wall_clock_s: float

    def seeds(self, mode: str) -> list[tuple[int, TrialResult]]:
        """(seed, trial) of one mode by ascending seed. Means and files
        follow this order within ``modes`` order, so a result read back from
        JSON (string seed keys) reports the same bytes."""
        return sorted(self.trials.get(mode, {}).items())

    def mean_curve(self, mode: str) -> list[float]:
        curves = [t.curve for _, t in self.seeds(mode) if t.curve]
        if not curves:
            return []
        length = min(len(c) for c in curves)
        stacked = np.array([c[:length] for c in curves])
        return [float(v) for v in stacked.mean(axis=0)]

    def to_dict(self) -> dict:
        def per_seed(part: str) -> dict:
            return {
                m: {str(s): getattr(t, part) for s, t in self.seeds(m)} for m in self.modes
            }

        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "modes": self.modes,
            "curves": per_seed("curve"),
            "mean_curves": {m: self.mean_curve(m) for m in self.modes},
            "decisions": per_seed("decisions"),
            "gamma_traces": per_seed("gamma_trace"),
            "records": per_seed("records"),
            "failures": self.failures,
            "wall_clock_s": self.wall_clock_s,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RunResult":
        """The inverse of ``to_dict``; a file without ``records`` reads
        every trial's records as empty. A missing or mistyped field raises
        SchemaError naming it, as do a gamma vector of another length than
        its action's first and an ablation's ``config.ablation_sizes`` shorter
        than a curve, which ``write_report`` cannot read."""
        if not isinstance(raw, dict):
            raise SchemaError(f"result root must be a mapping, got {type(raw).__name__}")
        modes = _result_field(raw, list, "modes")
        for i, m in enumerate(modes):
            if not isinstance(m, str):
                raise SchemaError(f"result field modes[{i}] must be a string, got {m!r}")
        trials = {}
        widths: dict[str, int] = {}  # action -> length of its first gamma vector
        for m in modes:
            trials[m] = {}
            for s in _result_field(raw, dict, "curves", m):
                if not s.isdigit():
                    raise SchemaError(f"result field curves[{m}] has a non-seed key {s!r}")
                curve = _numbers(raw, "curves", m, s)
                decisions = _result_field(raw, list, "decisions", m, s)
                gamma_trace = _result_field(raw, list, "gamma_traces", m, s)
                # The entries that write_report reads.
                for i in range(len(decisions)):
                    _result_field(raw, (int, type(None)), "decisions", m, s, i, "selected_old")
                for i in range(len(gamma_trace)):
                    action = _result_field(raw, str, "gamma_traces", m, s, i, "action")
                    n = len(_numbers(raw, "gamma_traces", m, s, i, "gamma"))
                    if n != widths.setdefault(action, n):
                        raise SchemaError(
                            f"result field gamma_traces[{m}][{s}][{i}][gamma] has length {n};"
                            f" action {action}'s first has length {widths[action]}"
                        )
                records = _result_field(raw, list, "records", m, s, default=[])
                trials[m][int(s)] = TrialResult(curve, decisions, gamma_trace, records)
        config = _result_field(raw, dict, "config")
        if config.get("mode") == Mode.MULTI_KERNEL_ABLATION.value:  # curves.csv's iterations
            sizes = _numbers(raw, "config", "ablation_sizes", kind=int)
            longest = max((len(t.curve) for m in modes for t in trials[m].values()), default=0)
            if len(sizes) < longest:
                raise SchemaError(
                    f"result field config[ablation_sizes] has length {len(sizes)},"
                    f" shorter than the longest curve ({longest})"
                )
        return cls(
            config=config,
            config_hash=_result_field(raw, str, "config_hash"),
            modes=modes,
            trials=trials,
            failures=list(_result_field(raw, list, "failures", default=[])),
            wall_clock_s=float(_result_field(raw, (int, float), "wall_clock_s", default=0.0)),
        )


def _result_field(raw: dict, kind, *path, default=None):
    """``raw[path[0]][path[1]]...``, which must be of type ``kind``; every
    step before it is a mapping, or a list where the next key is an int. A
    missing step gives ``default`` when one is given; otherwise, as for a
    mistyped one, SchemaError names the field. A bool is of no kind."""
    value = raw
    for depth, key in enumerate(path):
        name = path[0] + "".join(f"[{k}]" for k in path[1 : depth + 1])
        if key not in (range(len(value)) if isinstance(value, list) else value):
            if default is None:
                raise SchemaError(f"result field {name} is missing")
            return default
        value = value[key]
        if depth == len(path) - 1:
            expected = kind
        else:
            expected = list if isinstance(path[depth + 1], int) else dict
        if not isinstance(value, expected) or isinstance(value, bool):
            kinds = expected if isinstance(expected, tuple) else (expected,)
            names = " or ".join("null" if t is type(None) else t.__name__ for t in kinds)
            raise SchemaError(f"result field {name} must be {names}, got {type(value).__name__}")
    return value


def _numbers(raw: dict, *path, kind=(int, float)) -> list:
    """The list field at ``path``; every item must be of ``kind``, a number
    by default."""
    values = _result_field(raw, list, *path)
    for i in range(len(values)):
        _result_field(raw, kind, *path, i)
    return values


def write_report(result: RunResult, out_dir: str | Path) -> dict[str, Path]:
    """Write curves.csv, summary.json and the resolved config; byte-stable
    for a fixed result."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    csv_path = out / "curves.csv"
    lines = ["iteration,trial,mode,accuracy"]
    is_ablation = result.config.get("mode") == Mode.MULTI_KERNEL_ABLATION.value
    sizes = result.config.get("ablation_sizes", [])
    for mode in result.modes:
        for seed, trial in result.seeds(mode):
            for idx, acc in enumerate(trial.curve):
                iteration = sizes[idx] if is_ablation else idx + 1
                lines.append(f"{iteration},{seed},{mode},{acc:.10f}")
    csv_path.write_text("\n".join(lines) + "\n")

    trials = [t for mode in result.modes for _, t in result.seeds(mode)]
    decision_rows = [d for t in trials for d in t.decisions]
    none_count = sum(1 for d in decision_rows if d["selected_old"] is None)
    gammas: dict[str, list] = {}
    for t in trials:
        for entry in t.gamma_trace:
            gammas.setdefault(entry["action"], []).append(entry["gamma"])
    gamma_means = {
        action: [float(v) for v in np.mean(np.array(stacks), axis=0)]
        for action, stacks in gammas.items()
    }

    summary = {
        "config_hash": result.config_hash,
        "modes": {
            mode: {
                "mean_curve": result.mean_curve(mode),
                "one_shot_accuracy": (result.mean_curve(mode) or [None])[0],
                "final_accuracy": (result.mean_curve(mode) or [None])[-1],
                "trials": len(result.trials[mode]),
            }
            for mode in result.modes
        },
        "decisions": {
            "total": len(decision_rows),
            "none": none_count,
            "none_fraction": (none_count / len(decision_rows)) if decision_rows else None,
        },
        "gamma_means": gamma_means,
        "failures": result.failures,
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    config_path = out / "config.json"
    config_path.write_text(json.dumps(result.config, indent=2, sort_keys=True) + "\n")

    result_path = out / "result.json"
    result_path.write_text(json.dumps(result.to_dict(), sort_keys=True) + "\n")
    return {
        "curves": csv_path,
        "summary": summary_path,
        "config": config_path,
        "result": result_path,
    }
