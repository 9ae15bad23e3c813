"""Minimal reverse-mode autodiff substrate on numpy arrays.

Provides the Tensor graph, the op set needed by the captioning pipeline
(affine, attention, RMS norm, GELU, cross-entropy, indexing gathers,
concat and reshape), the `Packing` layout in which a training batch's
items share one 2-D block of rows, and the AdamW optimizer with decoupled
weight decay. Modules build in float32; the tests' gradient checks cast a
built module to float64 with `Module.astype`.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class EmptyTargetSet(ValueError):
    pass


class SpentGraph(RuntimeError):
    pass


def rng_from_seed(seed) -> np.random.Generator:
    """Seed may be an int or a sequence of ints (SeedSequence entropy).

    Inside a `no_init` block the generator draws nothing: its `normal`
    returns float32 zeros of the requested shape.
    """
    if not _init_draws:
        return _UNDRAWN
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


class _Undrawn:
    def normal(self, loc, scale, size) -> np.ndarray:
        return np.zeros(size, dtype=np.float32)


_UNDRAWN = _Undrawn()
_init_draws = True


@contextlib.contextmanager
def no_init():
    """Inside the block, modules build with zero weights and no random draws.

    For a caller that overwrites every weight it builds, as a checkpoint
    load does. Like `no_grad`, the mode is process-wide, blocks nest, and
    leaving one restores the mode it found.
    """
    global _init_draws
    previous, _init_draws = _init_draws, False
    try:
        yield
    finally:
        _init_draws = previous


def require_at_least(low: int, cfg, *names: str) -> None:
    """Raise ValueError on the first field of `cfg` in `names` below `low`."""
    for name in names:
        if getattr(cfg, name) < low:
            raise ValueError(f"{type(cfg).__name__}.{name} must be >= {low}, "
                             f"got {getattr(cfg, name)}")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the computation graph wrapping a numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def backward(self):
        """Fill the leaves' `.grad`. An op node's grad, closure and parents
        go once its closure has run, freeing what it saved; a later
        backward() that reaches such a spent node raises SpentGraph."""
        if self.data.ndim != 0:
            raise ShapeMismatch("backward() requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:
                raise SpentGraph("backward() reached a spent graph node")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = node._backward = node._parents = None

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            self.grad = g.copy() if g.base is not None or g is self.data else g
        else:
            self.grad = self.grad + g

    # -- elementwise arithmetic -------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other, self.dtype)

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))

        return _result(self.data + other.data, (self, other), backward)

    def __mul__(self, other):
        other = _as_tensor(other, self.dtype)

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))

        return _result(self.data * other.data, (self, other), backward)

    def __getitem__(self, key):
        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, key, g)
            self._accum(full)

        return _result(self.data[key], (self,), backward)


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Inside the block, op results need no gradient and record no parents.

    Inference runs under it so that no autograd graph is built. The mode
    is process-wide; blocks nest, and leaving one, by an exception too,
    restores the mode it found.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _result(data, parents: tuple, backward: Callable[[np.ndarray], None]) -> Tensor:
    """An op's output: a graph node only if grad is on and a parent needs it.

    `backward(g)` receives the output's gradient and accumulates into the
    parents. It must not refer to the output itself: then the graph holds
    no reference cycle, and dropping the loss frees it at once.
    """
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                return Tensor(data, True, parents, backward)
    return Tensor(data)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def parameter(data) -> Tensor:
    return Tensor(np.ascontiguousarray(data, dtype=np.float32), requires_grad=True)


# -- shape ops -------------------------------------------------------------

def affine(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight.T (+ bias) over the last axis; weight is (d_out, d_in).

    The forward keeps numpy's batched product on 3-D input, so an
    inference layer computes the same bits as before it became one node;
    training's packed rows are 2-D, one GEMM. The backward flattens the
    rows to 2-D, so dW = g.T @ x is a single GEMM.
    """
    d_out, d_in = weight.data.shape
    if x.data.shape[-1] != d_in:
        raise DimensionMismatch(
            f"linear expects last dim {d_in}, got {x.data.shape}")
    y = x.data @ weight.data.T
    if bias is not None:
        y += bias.data

    def backward(g):
        g = g.reshape(-1, d_out)
        if x.requires_grad:
            dx = g @ weight.data  # fresh: `_accum` keeps it without a copy
            x._accum(dx if dx.shape == x.data.shape else dx.reshape(x.data.shape))
        if weight.requires_grad:
            weight._accum(g.T @ x.data.reshape(-1, d_in))
        if bias is not None and bias.requires_grad:
            bias._accum(g.sum(axis=0))

    return _result(y, (x, weight) if bias is None else (x, weight, bias),
                   backward)


def reshape(t: Tensor, shape) -> Tensor:
    return _result(t.data.reshape(shape), (t,),
                   lambda g: t._accum(g.reshape(t.data.shape)))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)

    def backward(g):
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accum(g[tuple(idx)])

    return _result(np.concatenate([t.data for t in tensors], axis=axis),
                   tensors, backward)


def tsum(t: Tensor) -> Tensor:
    return _result(t.data.sum(), (t,),
                   lambda g: t._accum(np.broadcast_to(g, t.data.shape)))


# -- nonlinearities --------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(t: Tensor) -> Tensor:
    """Tanh-form GELU; the backward differentiates the same expression."""
    x = t.data
    th = x * x  # tanh(C * (x + A * x^3)) in one buffer, ops in that order
    th *= x
    th *= _GELU_A
    th += x
    th *= _GELU_C
    np.tanh(th, out=th)

    def backward(g):  # the sum's terms swapped and g applied last, in place
        d = 0.5 * x * (1.0 - th * th) * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
        d += 0.5 * (1.0 + th)
        d *= g
        t._accum(d)

    return _result(0.5 * x * (1.0 + th), (t,), backward)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = x - np.max(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _softmax_grad(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Gradient at the input of a softmax with output y and output grad g."""
    d = g - np.sum(g * y, axis=axis, keepdims=True)
    d *= y
    return d


RMS_EPS = 1e-6


def rms_norm(t: Tensor, gain: Tensor) -> Tensor:
    """x / sqrt(mean(x^2) + RMS_EPS) * gain, over the last axis."""
    x = t.data
    if gain.data.shape != x.shape[-1:]:
        raise DimensionMismatch("rms_norm gain must match the last axis")
    n = x.shape[-1]
    # np.mean's own sum and division, without its per-call overhead
    inv = 1.0 / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / n + RMS_EPS)
    inv = inv.astype(x.dtype, copy=False)

    def backward(g):
        if t.requires_grad:
            gg = g * gain.data
            dot = np.sum(gg * x, axis=-1, keepdims=True)
            gg *= inv
            gg -= x * (inv ** 3) * dot / n
            t._accum(gg)
        if gain.requires_grad:
            gain._accum(np.sum(g * x * inv, axis=tuple(range(x.ndim - 1))))

    return _result(x * inv * gain.data, (t, gain), backward)


class Packing:
    """Where the rows of several items sit in one packed (R, d) block.

    Item i's `lengths[i]` rows are contiguous and in item order, so
    row-wise ops (affine, GELU, RMS norm) run on real rows only. Attention
    scatters the rows into the padded (B, T, d) layout, T the longest
    item, with zero pad rows, and gathers the real rows back. `mask` is
    additive over that layout's (B, heads, T, T) scores: causal, or else
    the pad keys masked out (None when no item is padded). A causal mask
    needs no key padding, as an item's pad keys follow all its real rows.
    """

    def __init__(self, lengths: Sequence[int], causal: bool):
        lengths = np.asarray(lengths)
        b, t = len(lengths), int(lengths.max())
        self.shape = (b, t)
        self.pos = np.concatenate([np.arange(n) for n in lengths])
        # each row's index in the padded layout flattened to (B * T) rows
        self.index = np.repeat(np.arange(b) * t, lengths) + self.pos
        self.mask = None
        if causal:
            self.mask = causal_mask(t)
        elif self.index.size < b * t:
            self.mask = np.where(np.arange(t) < lengths[:, None], 0.0,
                                 -np.inf).astype(np.float32)[:, None, None, :]

    def scatter(self, rows: np.ndarray) -> np.ndarray:
        """(R, d) packed rows -> (B, T, d); a batch without padding is a view."""
        b, t = self.shape
        if self.index.size == b * t:
            return rows.reshape(b, t, -1)
        out = np.zeros((b * t, rows.shape[-1]), dtype=rows.dtype)
        out[self.index] = rows
        return out.reshape(b, t, -1)

    def gather(self, padded: np.ndarray) -> np.ndarray:
        """(B, T, d) -> its (R, d) real rows."""
        flat = padded.reshape(-1, padded.shape[-1])
        return flat if flat.shape[0] == self.index.size else flat[self.index]


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                         mask: np.ndarray | Packing | None = None) -> Tensor:
    """Scaled dot-product attention over token matrices (..., T, d).

    `mask` is an additive array broadcastable to (..., heads, Tq, Tk);
    masked positions carry -inf and so receive zero attention weight.
    With a `Packing` instead, q, k and v are its packed (R, d) rows: they
    attend within their item, in its padded layout under its mask, and
    the output is packed rows again. One graph node: with P the attention
    weights and dO the output gradient, the backward is dV = P^T dO,
    dP = dO V^T, dS = P * (dP - rowsum(dP * P)), dQ = dS K / sqrt(dh) and
    dK = dS^T Q / sqrt(dh). The backward keeps only P: it takes Q, K and V
    again from its parents, so packed rows are not also held padded.
    """
    d = q.data.shape[-1]
    if d % n_heads:
        raise DimensionMismatch(f"model dim {d} not divisible by {n_heads} heads")
    if k.data.shape[-1] != d or v.data.shape[-1] != d:
        raise DimensionMismatch("q, k, v must share their last dimension")
    dh = d // n_heads
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=q.dtype)
    packing = mask if isinstance(mask, Packing) else None
    if packing is not None:
        mask = packing.mask

    def heads(a):  # (..., T, d), or packed (R, d) -> (..., heads, T, dh)
        if packing is not None:
            a = packing.scatter(a)
        return np.swapaxes(a.reshape(a.shape[:-1] + (n_heads, dh)), -2, -3)

    def merge(a):  # (..., heads, T, dh) -> (..., T, d)
        a = np.swapaxes(a, -2, -3)
        return a.reshape(a.shape[:-2] + (d,))

    scores = heads(q.data) @ np.swapaxes(heads(k.data), -1, -2)
    scores *= scale
    if mask is not None:
        scores += mask
    p = _softmax(scores, -1)
    out = merge(p @ heads(v.data))

    def backward(g):
        go = heads(g)
        ds = _softmax_grad(p, go @ np.swapaxes(heads(v.data), -1, -2), -1)
        ds *= scale
        for t, grad in ((q, ds @ heads(k.data)),
                        (k, np.swapaxes(ds, -1, -2) @ heads(q.data)),
                        (v, np.swapaxes(p, -1, -2) @ go)):
            if t.requires_grad:
                grad = merge(grad)
                t._accum(_unbroadcast(grad, t.data.shape) if packing is None
                         else packing.gather(grad))

    return _result(out if packing is None else packing.gather(out),
                   (q, k, v), backward)


def causal_mask(n: int, start: int = 0) -> np.ndarray:
    """Additive mask for n queries at positions start.. over start + n keys.

    float32: 0 and -inf are exact in every float type, so adding it to
    scores of any dtype masks the same positions.
    """
    return np.triu(np.full((n, start + n), -np.inf, dtype=np.float32), k=start + 1)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the targets over every position.

    logits: (..., V); targets: integer ids (...,). A caller that scores
    only some positions gathers their rows first.
    """
    vocab = logits.data.shape[-1]
    rows = logits.data.reshape(-1, vocab)
    tgt = np.asarray(targets).reshape(-1)
    if tgt.size == 0:
        raise EmptyTargetSet("no target positions")
    if tgt.size != rows.shape[0]:
        raise ShapeMismatch(f"{tgt.size} targets for {rows.shape[0]} rows")
    if tgt.min() < 0 or tgt.max() >= vocab:
        raise ShapeMismatch("target id outside vocabulary range")
    n = tgt.size
    m = rows.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(rows - m).sum(axis=-1))
    picked = rows[np.arange(n), tgt]
    loss = (lse - picked).mean()

    def backward(g):
        probs = np.exp(rows - m)
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[np.arange(n), tgt] -= 1.0
        probs *= g / n  # fresh: `_accum` keeps it without a copy
        logits._accum(probs if probs.shape == logits.data.shape
                      else probs.reshape(logits.data.shape))

    return _result(np.asarray(loss, dtype=logits.dtype), (logits,), backward)


# -- modules ---------------------------------------------------------------

class Module:
    """Parameter container; `_walk` is the one traversal of the tree."""

    def _walk(self, prefix: str = ""):
        """Pre-order (name, node) pairs in attribute order, self first.

        Nodes are sub-Modules and Tensors; list and tuple items are named
        `name.i`. A module's name keeps its trailing dot.
        """
        yield prefix, self
        for name, value in vars(self).items():
            children = ([(f"{name}.{i}", v) for i, v in enumerate(value)]
                        if isinstance(value, (list, tuple)) else [(name, value)])
            for key, child in children:
                if isinstance(child, Module):
                    yield from child._walk(f"{prefix}{key}.")
                elif isinstance(child, Tensor):
                    yield prefix + key, child

    def named_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self._walk() if isinstance(v, Tensor)}

    def parameters(self) -> list[Tensor]:
        return [v for _, v in self._walk() if isinstance(v, Tensor)]

    def modules(self) -> list["Module"]:
        return [v for _, v in self._walk() if isinstance(v, Module)]

    def astype(self, dtype) -> "Module":
        """Cast every parameter's data to `dtype`, keeping the Tensors."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
        return self


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.weight = parameter(rng.normal(0.0, 0.02, (d_out, d_in)))
        self.bias = parameter(np.zeros(d_out))

    @classmethod
    def from_weights(cls, weight: np.ndarray, bias: np.ndarray) -> "Linear":
        layer = cls.__new__(cls)
        layer.weight = Tensor(np.ascontiguousarray(weight), requires_grad=True)
        layer.bias = Tensor(np.ascontiguousarray(bias), requires_grad=True)
        return layer

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)


class KVCache:
    """The projected keys and values one attention layer has seen so far.

    Both are (batch, T, d). Incremental decoding feeds only new rows;
    `extend` appends their keys and values along the time axis.
    """

    def __init__(self):
        self.keys: Tensor | None = None
        self.values: Tensor | None = None

    def extend(self, keys: Tensor, values: Tensor) -> tuple[Tensor, Tensor]:
        """Append new rows; return all keys and values seen so far."""
        if self.keys is not None:
            keys = concat([self.keys, keys], axis=-2)
            values = concat([self.values, values], axis=-2)
        self.keys, self.values = keys, values
        return keys, values

    def select(self, rows: np.ndarray) -> None:
        """Keep batch rows `rows` in that order; a row may repeat."""
        self.keys = self.keys[rows]
        self.values = self.values[rows]


class MultiHeadAttention(Module):
    """q/k/v/o projections around scaled dot-product attention.

    kv_dim lets the key/value input live in a different width than the
    query input (used by the bridge's cross-attention). With a `cache`,
    the queries attend over the cached keys and values plus the new ones.
    """

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator,
                 kv_dim: int | None = None):
        if d_model % n_heads:
            raise DimensionMismatch(f"{d_model} not divisible by {n_heads} heads")
        kv = kv_dim if kv_dim is not None else d_model
        self.n_heads = n_heads
        self.q = Linear(d_model, d_model, rng)
        self.k = Linear(kv, d_model, rng)
        self.v = Linear(kv, d_model, rng)
        self.o = Linear(d_model, d_model, rng)

    def __call__(self, query_input: Tensor, kv_input: Tensor,
                 mask: np.ndarray | None = None,
                 cache: KVCache | None = None) -> Tensor:
        qp = self.q(query_input)
        kp = self.k(kv_input)
        vp = self.v(kv_input)
        if cache is not None:
            kp, vp = cache.extend(kp, vp)
        ctx = multi_head_attention(qp, kp, vp, self.n_heads, mask)
        return self.o(ctx)


class FeedForward(Module):
    def __init__(self, d_model: int, mult: int, rng: np.random.Generator):
        self.up = Linear(d_model, d_model * mult, rng)
        self.down = Linear(d_model * mult, d_model, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.down(gelu(self.up(x)))


class TransformerBlock(Module):
    """Pre-norm residual block: attention then feed-forward."""

    def __init__(self, d_model: int, n_heads: int, ffn_mult: int,
                 rng: np.random.Generator, kv_dim: int | None = None):
        self.attn_gain = parameter(np.ones(d_model))
        self.attn = MultiHeadAttention(d_model, n_heads, rng, kv_dim)
        self.ffn_gain = parameter(np.ones(d_model))
        self.ffn = FeedForward(d_model, ffn_mult, rng)

    def __call__(self, x: Tensor, context: Tensor | None = None,
                 mask: np.ndarray | None = None,
                 cache: KVCache | None = None) -> Tensor:
        h = rms_norm(x, self.attn_gain)
        kv = h if context is None else context
        x = x + self.attn(h, kv, mask, cache)
        x = x + self.ffn(rms_norm(x, self.ffn_gain))
        return x


# -- optimizer -------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamW:
    """AdamW with decoupled weight decay and optional global-norm clipping.

    Decay is applied directly to the parameter (w -= lr*wd*w computed from
    the pre-step value), separately from the bias-corrected adaptive step.
    """

    def __init__(self, params: dict[str, Tensor], lr: float,
                 weight_decay: float = 0.0, clip_norm: float | None = 1.0):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._scratch: dict[tuple, np.ndarray] = {}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def _clip_scale(self, grads: dict[str, np.ndarray]) -> float | None:
        """The factor that clips the global norm, or None if none is due."""
        if self.clip_norm is None:
            return None
        total = 0.0
        for g in grads.values():
            sq = self._buffer(g.shape, 0, np.float64)
            np.copyto(sq, g)
            total += float(np.multiply(sq, sq, out=sq).sum())
        total = math.sqrt(total)
        if total > self.clip_norm and total > 0.0:
            return self.clip_norm / total
        return None

    def _buffer(self, shape, which: int, dtype) -> np.ndarray:
        """A view of shape `shape` into reused scratch buffer `which`."""
        size = math.prod(shape)
        key = (which, np.dtype(dtype))
        buf = self._scratch.get(key)
        if buf is None or buf.size < size:
            buf = self._scratch[key] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)

    def step(self):
        """One update, in place: p.data, m and v keep their arrays.

        The elementwise ops and their order are those of the textbook
        form p - lr*wd*p - lr * (m/bc1) / (sqrt(v/bc2) + eps), so the
        result is the same bits; temporaries live in reused buffers. Each
        `p.grad` is released (set to None) once applied, so no gradient
        stays alive through the next forward.
        """
        grads = {}
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeMismatch(f"gradient shape mismatch for {k}")
            grads[k] = g
        scale = self._clip_scale(grads)
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for k, p in self.params.items():
            g, m, v = grads.pop(k), self.m[k], self.v[k]
            p.grad = None
            a = self._buffer(g.shape, 0, g.dtype)
            b = self._buffer(g.shape, 1, g.dtype)
            if scale is not None:
                g = np.multiply(g, np.asarray(scale, dtype=g.dtype), out=b)
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            v *= ADAM_BETA2
            np.multiply(g, g, out=a)
            v += np.multiply(a, 1.0 - ADAM_BETA2, out=a)
            step = np.divide(m, bc1, out=a)
            step *= self.lr
            denom = np.divide(v, bc2, out=b)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            if self.weight_decay:
                p.data -= np.multiply(p.data, self.lr * self.weight_decay, out=b)
            p.data -= step

