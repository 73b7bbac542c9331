"""Brute-force reference implementations and the finite-difference oracle.

Everything here is written as direct loops over window/token indices with
explicit bounds checks, deliberately sharing no code with the optimized
modules.  Review checklist, enforced by construction:

* no imports from ``ops``, ``windows``, ``attention``, ``blocks``, ``model``;
* layer objects are touched only to read hyperparameters and raw weight
  arrays (``layer.w_v.data`` etc.), never to call their methods;
* numpy is used for storage and per-vector arithmetic only, never for
  window extraction, stacking, or batched attention.

Intended for small instances (maps up to ~12×12, C up to ~16); everything is
O(windows · K⁴ · C) python loops.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# error metrics and report


def relative_error(a: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> float:
    """max over coordinates of |a-b| / max(|a|, |b|, eps)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), eps)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def max_abs_error(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b))) if a.size else 0.0


@dataclass
class OracleCase:
    """One reference-vs-implementation comparison."""

    name: str
    seed: int
    max_abs_err: float
    max_rel_err: float
    passed: bool

    def row(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name:<40} seed={self.seed:<6} abs={self.max_abs_err:<12.3e} rel={self.max_rel_err:<12.3e} {status}"


@dataclass
class OracleReport:
    """Aggregate of comparison cases with a shared tolerance."""

    tolerance: float
    cases: list[OracleCase] = field(default_factory=list)

    def add(self, name: str, seed: int, a: np.ndarray, b: np.ndarray) -> OracleCase:
        rel = relative_error(a, b)
        case = OracleCase(name, seed, max_abs_error(a, b), rel, rel <= self.tolerance)
        self.cases.append(case)
        return case

    def add_case(self, case: OracleCase) -> OracleCase:
        self.cases.append(case)
        return case

    @property
    def max_abs_err(self) -> float:
        return max((c.max_abs_err for c in self.cases), default=0.0)

    @property
    def max_rel_err(self) -> float:
        return max((c.max_rel_err for c in self.cases), default=0.0)

    @property
    def seeds(self) -> list[int]:
        return sorted({c.seed for c in self.cases})

    @property
    def num_failed(self) -> int:
        return sum(not c.passed for c in self.cases)

    @property
    def passed(self) -> bool:
        return self.num_failed == 0

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "passed": self.passed,
            "cases": len(self.cases),
            "failed": self.num_failed,
            "max_abs_err": self.max_abs_err,
            "max_rel_err": self.max_rel_err,
            "seeds": self.seeds,
            "case_list": [vars(c) for c in self.cases],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def format_table(self) -> str:
        lines = [f"{len(self.cases)} cases, tolerance {self.tolerance:g}"]
        lines += [c.row() for c in self.cases]
        lines.append(
            f"max abs err {self.max_abs_err:.3e}   max rel err {self.max_rel_err:.3e}   "
            f"{'all passed' if self.passed else f'{self.num_failed} FAILED'}"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# finite differences


def finite_diff_grad(
    f: Callable[[Sequence[np.ndarray]], float], arrays: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Per-coordinate central differences of a scalar function.

    ``f`` receives the (temporarily perturbed) list of arrays and returns a
    float.  Arrays should be float64: the truncation error is O(h²) and the
    round-off error O(eps/h), both far below 1e-4 tolerances at h=1e-5 only
    in double precision.
    """
    h = 1e-5
    work = [np.array(a, dtype=np.float64) for a in arrays]
    grads = []
    for a in work:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(work)
            flat[i] = orig - h
            fm = f(work)
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


# ---------------------------------------------------------------------------
# window references


def _grid(height: int, width: int, kernel: int, stride: int):
    p = kernel // 2
    h = (height + 2 * p - kernel) // stride + 1
    w = (width + 2 * p - kernel) // stride + 1
    return h, w, p


def oracle_unfold(x: np.ndarray, kernel: int, stride: int = 1) -> np.ndarray:
    """Window extraction by direct loops with explicit bounds checks."""
    height, width, channels = x.shape
    h, w, p = _grid(height, width, kernel, stride)
    out = np.zeros((h * w, kernel * kernel, channels), dtype=x.dtype)
    for a in range(h):
        for b in range(w):
            t = a * w + b
            for dp in range(kernel):
                for dq in range(kernel):
                    i = a * stride + dp - p
                    j = b * stride + dq - p
                    if 0 <= i < height and 0 <= j < width:
                        out[t, dp * kernel + dq, :] = x[i, j, :]
    return out


def oracle_fold(
    y: np.ndarray, height: int, width: int, kernel: int, stride: int = 1
) -> np.ndarray:
    """Scatter-add of stack rows by direct loops (adjoint of oracle_unfold)."""
    h, w, p = _grid(height, width, kernel, stride)
    channels = y.shape[-1]
    out = np.zeros((height, width, channels), dtype=y.dtype)
    for a in range(h):
        for b in range(w):
            t = a * w + b
            for dp in range(kernel):
                for dq in range(kernel):
                    i = a * stride + dp - p
                    j = b * stride + dq - p
                    if 0 <= i < height and 0 <= j < width:
                        out[i, j, :] += y[t, dp * kernel + dq, :]
    return out


def _softmax_row(v: np.ndarray) -> np.ndarray:
    z = v - np.max(v)
    e = np.exp(z)
    return e / e.sum()


# ---------------------------------------------------------------------------
# layer references


def oracle_outlook_attention(x: np.ndarray, layer) -> np.ndarray:
    """Reference forward pass of outlook attention, one window at a time.

    Per window center: K⁴ logits per head from the (pooled) center token,
    row-softmax over source slots, weighted sums of in-bounds values,
    scatter-add of the K² result rows, then the output projection.
    """
    w_v = np.asarray(layer.w_v.data, dtype=np.float64)
    w_a = np.asarray(layer.w_a.data, dtype=np.float64)
    b_a = np.asarray(layer.b_a.data, dtype=np.float64)
    w_o = np.asarray(layer.w_o.data, dtype=np.float64)
    b_o = np.asarray(layer.b_o.data, dtype=np.float64)
    kernel, stride, heads = layer.kernel, layer.stride, layer.heads

    x = np.asarray(x, dtype=np.float64)
    height, width, channels = x.shape
    cn = channels // heads
    k2 = kernel * kernel
    h, w, p = _grid(height, width, kernel, stride)

    values = np.zeros((height, width, channels))
    for i in range(height):
        for j in range(width):
            values[i, j, :] = x[i, j, :] @ w_v

    aggregated = np.zeros((height, width, channels))
    for a in range(h):
        for b in range(w):
            # mean of the in-bounds stride×stride cell at (a, b)
            cell = x[a * stride : min((a + 1) * stride, height),
                     b * stride : min((b + 1) * stride, width), :]
            center = cell.reshape(-1, channels).mean(axis=0)
            logits = center @ w_a + b_a
            for n in range(heads):
                att = np.zeros((k2, k2))
                for row in range(k2):
                    att[row, :] = _softmax_row(
                        logits[n * k2 * k2 + row * k2 : n * k2 * k2 + (row + 1) * k2]
                    )
                for row in range(k2):
                    i_out = a * stride + row // kernel - p
                    j_out = b * stride + row % kernel - p
                    if not (0 <= i_out < height and 0 <= j_out < width):
                        continue
                    acc = np.zeros(cn)
                    for col in range(k2):
                        i_src = a * stride + col // kernel - p
                        j_src = b * stride + col % kernel - p
                        if 0 <= i_src < height and 0 <= j_src < width:
                            acc += att[row, col] * values[i_src, j_src, n * cn : (n + 1) * cn]
                    aggregated[i_out, j_out, n * cn : (n + 1) * cn] += acc

    out = np.zeros((height, width, channels))
    for i in range(height):
        for j in range(width):
            out[i, j, :] = aggregated[i, j, :] @ w_o + b_o
    return out


def oracle_local_self_attention(x: np.ndarray, layer) -> np.ndarray:
    """Reference dot-product attention over each token's K×K neighborhood.

    Out-of-bounds neighbors are skipped entirely (equivalent to -inf logits),
    so padding never contributes weight or value.
    """
    w_q = np.asarray(layer.w_q.data, dtype=np.float64)
    b_q = np.asarray(layer.b_q.data, dtype=np.float64)
    w_k = np.asarray(layer.w_k.data, dtype=np.float64)
    b_k = np.asarray(layer.b_k.data, dtype=np.float64)
    w_v = np.asarray(layer.w_v.data, dtype=np.float64)
    b_v = np.asarray(layer.b_v.data, dtype=np.float64)
    w_o = np.asarray(layer.w_o.data, dtype=np.float64)
    b_o = np.asarray(layer.b_o.data, dtype=np.float64)
    kernel, heads = layer.kernel, layer.heads

    x = np.asarray(x, dtype=np.float64)
    height, width, channels = x.shape
    dh = channels // heads
    p = kernel // 2
    scale = 1.0 / math.sqrt(dh)

    q = x @ w_q + b_q
    k = x @ w_k + b_k
    v = x @ w_v + b_v

    out = np.zeros((height, width, channels))
    for i in range(height):
        for j in range(width):
            for n in range(heads):
                seg = slice(n * dh, (n + 1) * dh)
                neighbors = []
                for dp in range(kernel):
                    for dq in range(kernel):
                        ii = i + dp - p
                        jj = j + dq - p
                        if 0 <= ii < height and 0 <= jj < width:
                            neighbors.append((ii, jj))
                logits = np.array(
                    [scale * float(q[i, j, seg] @ k[ii, jj, seg]) for ii, jj in neighbors]
                )
                weights = _softmax_row(logits)
                acc = np.zeros(dh)
                for weight, (ii, jj) in zip(weights, neighbors):
                    acc += weight * v[ii, jj, seg]
                out[i, j, seg] = acc
    return _project(out, w_o, b_o)


def _project(tokens: np.ndarray, w_o: np.ndarray, b_o: np.ndarray) -> np.ndarray:
    out = np.zeros_like(tokens)
    flat_in = tokens.reshape(-1, tokens.shape[-1])
    flat_out = out.reshape(-1, tokens.shape[-1])
    for t in range(flat_in.shape[0]):
        flat_out[t, :] = flat_in[t, :] @ w_o + b_o
    return out


def oracle_self_attention(x: np.ndarray, layer) -> np.ndarray:
    """Reference scaled dot-product attention over a flat (L, C) token list."""
    w_q = np.asarray(layer.w_q.data, dtype=np.float64)
    b_q = np.asarray(layer.b_q.data, dtype=np.float64)
    w_k = np.asarray(layer.w_k.data, dtype=np.float64)
    b_k = np.asarray(layer.b_k.data, dtype=np.float64)
    w_v = np.asarray(layer.w_v.data, dtype=np.float64)
    b_v = np.asarray(layer.b_v.data, dtype=np.float64)
    w_o = np.asarray(layer.w_o.data, dtype=np.float64)
    b_o = np.asarray(layer.b_o.data, dtype=np.float64)
    heads = layer.heads

    x = np.asarray(x, dtype=np.float64)
    length, channels = x.shape
    dh = channels // heads
    scale = 1.0 / math.sqrt(dh)

    q = x @ w_q + b_q
    k = x @ w_k + b_k
    v = x @ w_v + b_v

    out = np.zeros((length, channels))
    for t in range(length):
        for n in range(heads):
            seg = slice(n * dh, (n + 1) * dh)
            logits = np.array(
                [scale * float(q[t, seg] @ k[u, seg]) for u in range(length)]
            )
            weights = _softmax_row(logits)
            acc = np.zeros(dh)
            for u in range(length):
                acc += weights[u] * v[u, seg]
            out[t, seg] = acc
    return _project(out, w_o, b_o)


def oracle_conv(x: np.ndarray, layer) -> np.ndarray:
    """Reference K×K cross-correlation with zero padding, direct loops."""
    weight = np.asarray(layer.weight.data, dtype=np.float64)  # (K, K, Cin, Cout)
    bias = np.asarray(layer.bias.data, dtype=np.float64)
    kernel, stride = layer.kernel, layer.stride

    x = np.asarray(x, dtype=np.float64)
    height, width, cin = x.shape
    cout = weight.shape[-1]
    h, w, p = _grid(height, width, kernel, stride)

    out = np.zeros((h, w, cout))
    for a in range(h):
        for b in range(w):
            acc = np.array(bias)
            for dp in range(kernel):
                for dq in range(kernel):
                    i = a * stride + dp - p
                    j = b * stride + dq - p
                    if 0 <= i < height and 0 <= j < width:
                        acc = acc + x[i, j, :] @ weight[dp, dq, :, :]
            out[a, b, :] = acc
    return out
