"""Reference checks: each command's output against an independent route.

* ``gap``: the Eynard-Mehta ratio det A^w / det A^0 of pairing matrices,
  to 1e-9 relative.
* ``counts``: P(0, ..., 0) equals that ratio and the total equals 1, to 1e-8.
* ``janossy``: the ratio times the correlation of the (1 - w)-dualized checked
  kernel at the task points, to 1e-9 relative.
* ``oracle``: exit code 0, i.e. the library agrees with exhaustive
  enumeration on the instance.
* ``check``: its verdict is its output. Exit 0 with every row within its
  bound accepts the instance. Exit 1 with a consistent report (the rows over
  their bound are exactly the rows marked ``fail``), or exit 3 (a refusal),
  rejects it. A rejection is not a failure: ``check`` compares residuals
  with absolute bounds, and on the rejected discrete instances ``oracle``
  still agrees with enumeration. The share of rejected instances is gated
  separately, as ``accept_ratio``.
* ``sample``: |z| <= 5 against the Fredholm determinant.

Checks run outside the timed interval. A command fails on a crash, on a
nonzero exit other than a ``check`` rejection, or on a failed check; a
failed check on a printed value also makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from detchain import biortho, fredholm, kernels
from detchain.chain import WeightSet
from detchain.errors import DetchainError

GAP_RTOL = 1e-9
COUNTS_ATOL = 1e-8
JANOSSY_RTOL = 1e-9
MAX_ZSCORE = 5.0


@dataclass
class Outcome:
    """What the checks found for one command."""

    failed: bool = False
    wrong_value: bool = False
    rejected: bool = False
    notes: list[str] = field(default_factory=list)

    def require(self, ok: bool, wrong_value: bool, note: str) -> None:
        if not ok:
            self.failed = True
            self.wrong_value = self.wrong_value or wrong_value
            self.notes.append(note)

    def reject(self, note: str) -> None:
        self.rejected = True
        self.notes.append(note)


class References:
    """Independent reference values per instance, plus running accuracy maxima."""

    def __init__(self):
        self.accuracy = {"acc.gap_ratio_relerr.max": 0.0,
                         "acc.janossy_dual_relerr.max": 0.0,
                         "acc.check_residual_over_bound.max": 0.0,
                         "acc.sample_zscore.max": 0.0}
        self._cache: dict = {}

    def _raise_max(self, key: str, value: float) -> None:
        self.accuracy[key] = max(self.accuracy[key], float(value))

    def gap_ratio(self, inst) -> float:
        key = ("gap", inst.digest)
        if key not in self._cache:
            zeros = WeightSet.zeros(inst.tables.grids)
            self._cache[key] = (np.linalg.det(biortho.pairing_matrix(inst.tables,
                                                                     inst.weights))
                                / np.linalg.det(biortho.pairing_matrix(inst.tables,
                                                                       zeros)))
        return float(self._cache[key])

    def janossy_dual(self, inst) -> float:
        key = ("janossy", inst.digest)
        if key not in self._cache:
            tables, weights = inst.tables, inst.weights
            dual = kernels.check_kernel(
                kernels.build_K(biortho.dual_bases(tables, weights)),
                kernels.build_g(tables, weights))
            self._cache[key] = self.gap_ratio(inst) * fredholm.correlation(
                dual, inst.task.points)
        return float(self._cache[key])

    def _relerr(self, value: float, reference: float) -> float:
        return abs(value - reference) / abs(reference)

    def check(self, command: str, inst, exit_code: int, stdout: str,
              csv_text: str) -> Outcome:
        out = Outcome()
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        if command == "check":
            self._check(exit_code, rows, out)
            return out
        out.require(exit_code == 0, False, f"{command} exited {exit_code}")
        if exit_code != 0 and command != "oracle":
            return out
        try:
            getattr(self, "_" + command)(inst, stdout, rows, out)
        except DetchainError as exc:
            # oracle only feeds readouts from the reference routes; every
            # other command's value goes unverified, which fails it
            note = f"{command}: reference route refused: {type(exc).__name__}"
            if command == "oracle":
                out.notes.append(note)
            else:
                out.require(False, True, note)
        return out

    def _check(self, exit_code, rows, out):
        if exit_code == 3:
            out.reject("check refused the instance (exit 3)")
            return
        over = []
        for row in rows:
            residual, bound = float(row["residual"]), float(row["bound"])
            self._raise_max("acc.check_residual_over_bound.max", residual / bound)
            out.require((row["status"] == "pass") == (residual <= bound), True,
                        f"check row {row['quantity']} marked {row['status']}")
            if residual > bound:
                over.append(row["quantity"])
        out.require(bool(rows) and exit_code == (1 if over else 0), True,
                    f"check exited {exit_code} with {len(over)} of {len(rows)} "
                    "rows over bound")
        if over and not out.failed:
            out.reject("check rows over bound: " + ", ".join(over))

    def _gap(self, inst, stdout, rows, out):
        err = self._relerr(float(rows[0]["value"]), self.gap_ratio(inst))
        self._raise_max("acc.gap_ratio_relerr.max", err)
        out.require(err <= GAP_RTOL, True, f"gap off the pairing ratio by {err:.2e}")

    def _janossy(self, inst, stdout, rows, out):
        err = self._relerr(float(rows[0]["value"]), self.janossy_dual(inst))
        self._raise_max("acc.janossy_dual_relerr.max", err)
        out.require(err <= JANOSSY_RTOL, True,
                    f"janossy off the dualized correlation by {err:.2e}")

    def _counts(self, inst, stdout, rows, out):
        m = inst.tables.m
        empty = next(float(r["probability"]) for r in rows
                     if all(int(r[f"count_{j + 1}"]) == 0 for j in range(m)))
        diff = abs(empty - self.gap_ratio(inst))
        out.require(diff <= COUNTS_ATOL, True, f"P(0,...,0) off the gap by {diff:.2e}")
        total = float(stdout.strip())
        out.require(abs(total - 1.0) <= COUNTS_ATOL, True,
                    f"count total {total!r} is not 1")

    def _oracle(self, inst, stdout, rows, out):
        library = {row["quantity"]: float(row["library"]) for row in rows}
        if "gap_probability" in library:
            self._raise_max("acc.gap_ratio_relerr.max",
                            self._relerr(library["gap_probability"],
                                         self.gap_ratio(inst)))
        if "janossy_density" in library:
            self._raise_max("acc.janossy_dual_relerr.max",
                            self._relerr(library["janossy_density"],
                                         self.janossy_dual(inst)))
        failing = [row["quantity"] for row in rows if row["status"] != "pass"]
        if failing:
            out.notes.append("oracle rows over bound: " + ", ".join(failing))

    def _sample(self, inst, stdout, rows, out):
        row = rows[0]
        self._raise_max("acc.gap_ratio_relerr.max",
                        self._relerr(float(row["reference"]), self.gap_ratio(inst)))
        z = float(row["zscore"])
        self._raise_max("acc.sample_zscore.max", z)
        out.require(z <= MAX_ZSCORE, True, f"sample z-score {z:.2f} above {MAX_ZSCORE}")
