"""Minimal reverse-mode autodiff substrate on numpy arrays.

Provides the Tensor graph, the op set needed by the captioning pipeline
(affine, attention, RMS norm, GELU, cross-entropy, the residual add,
indexing gathers, concat and reshape), the `Packing` layout in which a
training batch's items share one 2-D block of rows, and the AdamW
optimizer with decoupled weight decay. Modules build in float32; the
tests' gradient checks cast a built module to float64 with
`Module.astype`.
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

def affine_forward(x: np.ndarray, weight: np.ndarray,
                   bias: np.ndarray | None) -> np.ndarray:
    """x @ weight.T (+ bias): `affine`'s forward, on arrays."""
    y = x @ weight.T
    if bias is not None:
        y += bias
    return y


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
    y = affine_forward(x.data, weight.data, None if bias is None else bias.data)

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


def add_into(x: Tensor, y: Tensor) -> Tensor:
    """`x + y`, bit for bit, written into y's array: a residual add.

    `y` must be an op's fresh output of the sum's shape and dtype that no
    backward reads, such as an affine's; the sum needs no array of its own.
    """
    assert (y.data.shape == x.data.shape and y.data.flags.owndata
            and y.data.dtype == np.result_type(x.data, y.data)
            and (y._backward is not None or not y.requires_grad)), \
        "add_into needs a fresh op output of the sum's shape and dtype"

    def backward(g):
        for p in (x, y):
            if p.requires_grad:
                p._accum(g)

    return _result(np.add(x.data, y.data, out=y.data), (x, y), backward)


# -- nonlinearities --------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`gelu`'s forward on an array: the output and the tanh term `th`.

    It writes in place, with the textbook form's ops in its order; only
    operands of + and * are swapped, which keeps every bit.
    """
    th = x * x  # tanh(C * (x + A * x^3)) in one buffer, ops in that order
    th *= x
    th *= _GELU_A
    th += x
    th *= _GELU_C
    np.tanh(th, out=th)
    out = np.multiply(x, 0.5)  # (0.5 * x) * (1 + th)
    out *= th + 1.0
    return out, th


def gelu(t: Tensor) -> Tensor:
    """Tanh-form GELU; the backward differentiates the same expression,
    writing in place as `gelu_forward` does."""
    x = t.data
    out, th = gelu_forward(x)

    def backward(g):
        # 0.5*x * (1 - th*th) * C * (1 + 3A*x*x) + 0.5 * (1 + th), times g
        d = np.multiply(x, 0.5)
        s = np.multiply(th, th)
        d *= np.subtract(1.0, s, out=s)
        d *= _GELU_C
        np.multiply(x, 3.0 * _GELU_A, out=s)
        s *= x
        s += 1.0
        d *= s
        np.add(th, 1.0, out=s)
        s *= 0.5
        d += s
        d *= g
        t._accum(d)

    return _result(out, (t,), backward)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = x - x.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _softmax_grad(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Gradient at the input of a softmax with output y and output grad g."""
    d = g - np.sum(g * y, axis=axis, keepdims=True)
    d *= y
    return d


RMS_EPS = 1e-6


def rms_norm_forward(x: np.ndarray,
                     gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`rms_norm`'s forward on arrays: the output and 1 / rms, `inv`."""
    n = x.shape[-1]
    # np.mean's own sum and division, without its per-call overhead
    inv = 1.0 / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / n + RMS_EPS)
    inv = inv.astype(x.dtype, copy=False)
    out = x * inv
    out *= gain
    return out, inv


def rms_norm(t: Tensor, gain: Tensor) -> Tensor:
    """x / sqrt(mean(x^2) + RMS_EPS) * gain, over the last axis."""
    x = t.data
    if gain.data.shape != x.shape[-1:]:
        raise DimensionMismatch("rms_norm gain must match the last axis")
    n = x.shape[-1]
    out, inv = rms_norm_forward(x, gain.data)

    def backward(g):
        s = np.empty_like(x)  # the one scratch array for the temporaries
        if t.requires_grad:
            gg = g * gain.data
            dot = np.sum(np.multiply(gg, x, out=s), axis=-1, keepdims=True)
            gg *= inv
            np.multiply(x, inv ** 3, out=s)  # x * inv^3 * dot / n
            s *= dot
            s /= n
            gg -= s
            t._accum(gg)
        if gain.requires_grad:
            np.multiply(g, x, out=s)
            s *= inv
            gain._accum(np.sum(s, axis=tuple(range(x.ndim - 1))))

    return _result(out, (t, gain), backward)


class Packing:
    """Where the rows of several items sit in one packed (R, d) block.

    Under a causal mask, the first `head` rows of every item may be the
    same rows, a shared head (a training batch's `<bos>` + instruction
    head; 0 for none). The block holds them once, then each item's own
    `lengths[i] - head` rows, contiguous and in item order, so row-wise
    ops (affine, GELU, RMS norm) run on real rows only and on the head
    once. `pos` is each packed row's position within its item. Attention
    scatters the rows into the padded (B, T, d) layout, T the longest
    item, with the head copied into every item and zero pad rows, and
    gathers the real rows back, the head's from item 0. `mask` is
    additive over that layout's (B, heads, T, T) scores: causal, or else
    the pad keys masked out (None when no item is padded). A causal mask
    needs no key padding, as an item's pad keys follow all its real rows,
    and a causal head sees only itself, so its rows come out the same in
    every item.
    """

    def __init__(self, lengths: Sequence[int], causal: bool, head: int):
        lengths = np.asarray(lengths)
        b, t = len(lengths), int(lengths.max())
        if head > (lengths.min() if causal else 0):
            raise ShapeMismatch(f"a shared head of {head} rows needs causal "
                                f"items of at least that length")
        self.shape, self.head = (b, t), head
        own = [np.arange(head, n) for n in lengths]
        self.pos = np.concatenate([np.arange(head)] + own)
        # each packed row's index in the padded layout flattened to (B * T)
        # rows, the head's in item 0
        self.index = np.concatenate(
            [np.arange(head)] + [i * t + p for i, p in enumerate(own)])
        # the packed row of item i's own position `head` is starts[i] + head
        self.starts = np.cumsum([0] + [n - head for n in lengths[:-1]])
        self.mask = None
        if causal:
            self.mask = causal_mask(t)
        elif self.index.size < b * t:
            self.mask = np.where(np.arange(t) < lengths[:, None], 0.0,
                                 -np.inf).astype(np.float32)[:, None, None, :]

    def row(self, item: np.ndarray, position: np.ndarray) -> np.ndarray:
        """The packed row of item `item[j]`'s row `position[j]`, for each j."""
        return np.where(position < self.head, position,
                        self.starts[item] + position)

    def place(self, rows: np.ndarray) -> np.ndarray:
        """(R, d) packed rows -> (B, T, d), each row once, the head in item
        0 and zeros elsewhere: the adjoint of `gather`. A batch without
        padding or head is a view."""
        b, t = self.shape
        if self.index.size == b * t:
            return rows.reshape(b, t, -1)
        out = np.zeros((b * t, rows.shape[-1]), dtype=rows.dtype)
        out[self.index] = rows
        return out.reshape(b, t, -1)

    def scatter(self, rows: np.ndarray) -> np.ndarray:
        """(R, d) packed rows -> (B, T, d), the head in every item."""
        out = self.place(rows)
        out[1:, :self.head] = rows[:self.head]
        return out

    def gather(self, padded: np.ndarray) -> np.ndarray:
        """(B, T, d) -> its (R, d) real rows, the head's from item 0."""
        flat = padded.reshape(-1, padded.shape[-1])
        return flat if flat.shape[0] == self.index.size else flat[self.index]

    def adjoint(self, padded: np.ndarray) -> np.ndarray:
        """The adjoint of `scatter`: `gather`, with each head row the sum
        of its copies in every item."""
        rows = self.gather(padded)
        if self.head and self.shape[0] > 1:
            rows[:self.head] = padded[:, :self.head].sum(axis=0)
        return rows


def _split_heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., T, d) -> (..., heads, T, dh), a view."""
    return a.reshape(a.shape[:-1] + (n_heads, -1)).swapaxes(-2, -3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(..., heads, T, dh) -> (..., T, d)."""
    a = a.swapaxes(-2, -3)
    return a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))


def attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                      n_heads: int, mask: np.ndarray | None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """`multi_head_attention`'s forward on (..., T, d) arrays: the output
    and the attention weights P, (..., heads, Tq, Tk).

    Keys and values may be views with a longer row stride, such as a
    `KVCache`'s: each (T, dh) slice keeps unit strides within its rows, so
    the products compute the same bits as on contiguous arrays.
    """
    scale = np.asarray(1.0 / math.sqrt(q.shape[-1] // n_heads), dtype=q.dtype)
    scores = _split_heads(q, n_heads) @ _split_heads(k, n_heads).swapaxes(-1, -2)
    scores *= scale
    if mask is not None:
        scores += mask
    p = _softmax(scores, -1)
    return _merge_heads(p @ _split_heads(v, n_heads)), p


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                         mask: np.ndarray | Packing | None = None) -> Tensor:
    """Scaled dot-product attention over token matrices (..., T, d).

    `mask` is an additive array broadcastable to (..., heads, Tq, Tk);
    masked positions carry -inf and so receive zero attention weight.
    With a `Packing` instead, q, k and v are its packed (R, d) rows: they
    attend within their item, in its padded layout under its mask, and
    the output is packed rows again; a shared head attends once per item,
    and its output rows are item 0's. One graph node: with P the attention
    weights and dO the output gradient, the backward is dV = P^T dO,
    dP = dO V^T, dS = P * (dP - rowsum(dP * P)), dQ = dS K / sqrt(dh) and
    dK = dS^T Q / sqrt(dh), each packed by `Packing.adjoint`, which sums a
    head row's gradient over its copies. The backward keeps only P: it
    takes Q, K and V again from its parents, so packed rows are not also
    held padded.
    """
    scale = np.asarray(1.0 / math.sqrt(q.data.shape[-1] // n_heads), dtype=q.dtype)
    packing = mask if isinstance(mask, Packing) else None
    if packing is not None:
        mask = packing.mask

    def padded(a):  # packed (R, d) rows -> (B, T, d); else `a` itself
        return a if packing is None else packing.scatter(a)

    def heads(a):
        return _split_heads(padded(a), n_heads)

    out, p = attention_forward(padded(q.data), padded(k.data), padded(v.data),
                               n_heads, mask)

    def backward(g):
        # the output took its head rows from item 0: their dO goes there alone
        go = _split_heads(g if packing is None else packing.place(g), n_heads)
        ds = _softmax_grad(p, go @ np.swapaxes(heads(v.data), -1, -2), -1)
        ds *= scale
        for t, grad in ((q, ds @ heads(k.data)),
                        (k, np.swapaxes(ds, -1, -2) @ heads(q.data)),
                        (v, np.swapaxes(p, -1, -2) @ go)):
            if t.requires_grad:
                grad = _merge_heads(grad)
                t._accum(_unbroadcast(grad, t.data.shape) if packing is None
                         else packing.adjoint(grad))

    return _result(out if packing is None else packing.gather(out),
                   (q, k, v), backward)


def causal_mask(n: int, start: int = 0) -> np.ndarray:
    """Additive mask for n queries at positions start.. over start + n keys.

    float32: 0 and -inf are exact in every float type, so adding it to
    scores of any dtype masks the same positions.
    """
    return np.triu(np.full((n, start + n), -np.inf, dtype=np.float32), k=start + 1)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the targets, one per row.

    logits: (N, V) rows; targets: N integer ids. A caller that scores only
    some positions gathers their rows first.
    """
    rows = logits.data
    vocab = rows.shape[1]
    tgt = np.asarray(targets)
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
        logits._accum(probs)

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

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """The layer on an array, for cached decoding: no graph."""
        return affine_forward(x, self.weight.data, self.bias.data)


class KVCache:
    """The projected keys and values one attention layer has seen so far.

    One preallocated (rows, length, d) array each for keys and values:
    `rows` is the most batch rows decoding holds at once, `length` the
    most positions. The first `filled` positions of the live rows are
    valid.
    """

    def __init__(self, rows: int, length: int, d: int, dtype):
        self.keys = np.empty((rows, length, d), dtype=dtype)
        self.values = np.empty((rows, length, d), dtype=dtype)
        self.filled = 0

    def extend(self, keys: np.ndarray,
               values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write the new (batch, n, d) rows after the filled ones, in
        place; return views of all keys and values seen so far."""
        b, n = keys.shape[:2]
        end = self.filled + n
        self.keys[:b, self.filled:end] = keys
        self.values[:b, self.filled:end] = values
        self.filled = end
        return self.keys[:b, :end], self.values[:b, :end]

    def select(self, rows: np.ndarray) -> None:
        """Keep batch rows `rows` in that order; a row may repeat."""
        n = self.filled
        self.keys[:len(rows), :n] = self.keys[rows, :n]
        self.values[:len(rows), :n] = self.values[rows, :n]


class MultiHeadAttention(Module):
    """q/k/v/o projections around scaled dot-product attention.

    kv_dim lets the key/value input live in a different width than the
    query input (used by the bridge's cross-attention).
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
                 mask: np.ndarray | Packing | None = None) -> Tensor:
        ctx = multi_head_attention(self.q(query_input), self.k(kv_input),
                                   self.v(kv_input), self.n_heads, mask)
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
                 mask: np.ndarray | Packing | None = None) -> Tensor:
        h = rms_norm(x, self.attn_gain)
        kv = h if context is None else context
        x = add_into(x, self.attn(h, kv, mask))
        x = add_into(x, self.ffn(rms_norm(x, self.ffn_gain)))
        return x

    def cached_step(self, x: np.ndarray, mask: np.ndarray | None,
                    cache: KVCache) -> np.ndarray:
        """The self-attention block on (batch, n, d) new rows, for cached
        decoding: the rows attend over the keys and values `cache` holds
        plus their own, which it keeps.

        Arrays in, array out, no graph: the ops of `__call__`, each through
        the same array function, in the same order, so the bits match.
        """
        attn, ffn = self.attn, self.ffn
        h = rms_norm_forward(x, self.attn_gain.data)[0]
        keys, values = cache.extend(attn.k.forward_array(h), attn.v.forward_array(h))
        ctx = attention_forward(attn.q.forward_array(h), keys, values,
                                attn.n_heads, mask)[0]
        y = attn.o.forward_array(ctx)
        x = np.add(x, y, out=y)
        h = rms_norm_forward(x, self.ffn_gain.data)[0]
        y = ffn.down.forward_array(gelu_forward(ffn.up.forward_array(h))[0])
        return np.add(x, y, out=y)


# -- optimizer -------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
CLIP_NORM = 1.0  # the global gradient norm above which a step is clipped
WEIGHT_DECAY = 1e-6  # the decoupled decay in every training stage


class AdamW:
    """AdamW with decoupled weight decay WEIGHT_DECAY and global-norm
    clipping at CLIP_NORM.

    Decay is applied directly to the parameter (w -= lr*wd*w computed from
    the pre-step value), separately from the bias-corrected adaptive step.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def _clip_scale(self, grads: dict[str, np.ndarray]) -> float | None:
        """The factor that clips the global norm, or None if none is due."""
        total = 0.0
        for g in grads.values():
            total += float(np.square(g, dtype=np.float64).sum())
        total = math.sqrt(total)
        if total > CLIP_NORM:
            return CLIP_NORM / total
        return None

    def step(self):
        """One update, in place: p.data, m and v keep their arrays.

        The textbook form p - lr*wd*p - lr * (m/bc1) / (sqrt(v/bc2) + eps),
        op for op. Each `p.grad` is released (set to None) once applied, so
        no gradient stays alive through the next forward.
        """
        grads = {}
        for k, p in self.params.items():
            g = p.grad
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
            if scale is not None:
                g = g * np.asarray(scale, dtype=g.dtype)
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.data -= self.lr * WEIGHT_DECAY * p.data
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
