"""Loss functions with explicit gradients.

Softmax-cross-entropy is the loss Algorithm 1's bound derivation assumes
(Property 3): its input gradient is ``(p_i - y_i) / m``, which is bounded
by ``1/m`` in magnitude — the anchor of the gradient-history bound.
"""

from __future__ import annotations

import numpy as np


class Loss:
    """Base class: ``forward`` returns a scalar loss, ``backward`` the
    gradient with respect to the forward inputs."""

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return self.forward(prediction, target)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax; overflow-tolerant for faulty inputs."""
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = logits - np.max(logits, axis=axis, keepdims=True)
        exp = np.exp(shifted)
        return (exp / exp.sum(axis=axis, keepdims=True)).astype(np.float32)


class SoftmaxCrossEntropy(Loss):
    """Softmax + cross-entropy over integer class labels.

    The gradient ``(p - y) / m`` is exactly the Step-1 quantity bounded in
    Algorithm 1: every element lies in ``[-1/m, 1/m]`` where ``m`` is the
    mini-batch size.
    """

    def __init__(self, eps: float = 1e-12):
        self.eps = float(eps)
        self._probs: np.ndarray | None = None
        self._target: np.ndarray | None = None

    def forward(self, logits: np.ndarray, target: np.ndarray) -> float:
        probs = softmax(logits)
        self._probs = probs
        self._target = target
        n = logits.shape[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            picked = probs[np.arange(n), target]
            loss = -np.log(picked + self.eps).mean()
        return float(loss)

    def backward(self) -> np.ndarray:
        probs, target = self._probs, self._target
        n = probs.shape[0]
        grad = probs.copy()
        grad[np.arange(n), target] -= 1.0
        return (grad / n).astype(np.float32)


class SequenceCrossEntropy(Loss):
    """Per-token softmax cross-entropy for (N, T, V) logits.

    Positions whose target equals ``pad_id`` are excluded from the loss and
    receive zero gradient (standard practice for translation training).
    """

    def __init__(self, pad_id: int = -1, eps: float = 1e-12):
        self.pad_id = int(pad_id)
        self.eps = float(eps)
        self._probs: np.ndarray | None = None
        self._target: np.ndarray | None = None
        self._mask: np.ndarray | None = None

    def forward(self, logits: np.ndarray, target: np.ndarray) -> float:
        n, t, v = logits.shape
        probs = softmax(logits, axis=-1)
        mask = target != self.pad_id
        self._probs, self._target, self._mask = probs, target, mask
        safe_target = np.where(mask, target, 0)
        picked = probs[np.arange(n)[:, None], np.arange(t)[None, :], safe_target]
        with np.errstate(divide="ignore", invalid="ignore"):
            token_loss = -np.log(picked + self.eps) * mask
        denom = max(int(mask.sum()), 1)
        return float(token_loss.sum() / denom)

    def backward(self) -> np.ndarray:
        probs, target, mask = self._probs, self._target, self._mask
        n, t, v = probs.shape
        grad = probs.copy()
        safe_target = np.where(mask, target, 0)
        grad[np.arange(n)[:, None], np.arange(t)[None, :], safe_target] -= 1.0
        grad *= mask[:, :, None]
        denom = max(int(mask.sum()), 1)
        return (grad / denom).astype(np.float32)


class MSELoss(Loss):
    """Mean squared error (used by the multigrid-memory regression head)."""

    def __init__(self):
        self._diff: np.ndarray | None = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            self._diff = (prediction - target).astype(np.float32)
            return float(np.mean(self._diff.astype(np.float64) ** 2))

    def backward(self) -> np.ndarray:
        n = self._diff.size
        return (2.0 * self._diff / n).astype(np.float32)


class DetectionLoss(Loss):
    """Simplified single-scale YOLO-style detection loss.

    Predictions have shape (N, A*(5+K), S, S): per grid cell and anchor, a
    box (tx, ty, tw, th), an objectness logit, and K class logits.  Targets
    are dense tensors of the same grid layout produced by
    :mod:`repro.data.detection`.  The loss combines:

    * squared error on box coordinates for object cells,
    * binary cross-entropy on objectness everywhere,
    * softmax cross-entropy on classes for object cells.
    """

    def __init__(self, num_classes: int, num_anchors: int = 1,
                 box_weight: float = 5.0, noobj_weight: float = 0.5):
        self.num_classes = int(num_classes)
        self.num_anchors = int(num_anchors)
        self.box_weight = float(box_weight)
        self.noobj_weight = float(noobj_weight)
        self._cache: tuple | None = None

    def _split(self, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, _, s, _ = pred.shape
        a, k = self.num_anchors, self.num_classes
        grid = pred.reshape(n, a, 5 + k, s, s)
        return grid[:, :, 0:4], grid[:, :, 4], grid[:, :, 5:]

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        boxes, obj_logit, cls_logit = self._split(prediction)
        t_boxes, t_obj, t_cls = self._split(target)
        obj_mask = t_obj > 0.5
        with np.errstate(over="ignore", invalid="ignore"):
            obj_prob = 1.0 / (1.0 + np.exp(-np.clip(obj_logit, -60, 60)))
            box_err = (boxes - t_boxes) ** 2 * obj_mask[:, :, None]
            box_loss = self.box_weight * box_err.sum()
            obj_bce = -(
                t_obj * np.log(obj_prob + 1e-9)
                + (1.0 - t_obj) * np.log(1.0 - obj_prob + 1e-9)
            )
            obj_loss = np.where(obj_mask, obj_bce, self.noobj_weight * obj_bce).sum()
            cls_prob = softmax(cls_logit, axis=2)
            cls_ce = -(t_cls * np.log(cls_prob + 1e-9)).sum(axis=2) * obj_mask
            cls_loss = cls_ce.sum()
        n = prediction.shape[0]
        self._cache = (prediction.shape, boxes, t_boxes, obj_prob, t_obj,
                       obj_mask, cls_prob, t_cls, n)
        return float((box_loss + obj_loss + cls_loss) / n)

    def backward(self) -> np.ndarray:
        (shape, boxes, t_boxes, obj_prob, t_obj, obj_mask,
         cls_prob, t_cls, n) = self._cache
        with np.errstate(over="ignore", invalid="ignore"):
            d_boxes = 2.0 * self.box_weight * (boxes - t_boxes) * obj_mask[:, :, None]
            d_obj = obj_prob - t_obj
            d_obj = np.where(obj_mask, d_obj, self.noobj_weight * d_obj)
            d_cls = (cls_prob - t_cls) * obj_mask[:, :, None]
        a, k = self.num_anchors, self.num_classes
        s = shape[2]
        grad = np.concatenate(
            [d_boxes, d_obj[:, :, None], d_cls], axis=2
        ).reshape(n, a * (5 + k), s, s)
        return (grad / n).astype(np.float32)


def top1(logits: np.ndarray) -> np.ndarray:
    """Per-position top-1 over the last axis; a NaN logit never wins."""
    return np.argmax(np.nan_to_num(logits, nan=-np.inf), axis=-1)


def accuracy(logits: np.ndarray, target: np.ndarray) -> float:
    """Top-1 classification accuracy; NaN logits never count as correct."""
    return float(np.mean(top1(logits) == target))


def sequence_accuracy(logits: np.ndarray, target: np.ndarray, pad_id: int = -1) -> float:
    """Per-token accuracy over non-padding positions."""
    pred = top1(logits)
    mask = target != pad_id
    denom = max(int(mask.sum()), 1)
    return float(((pred == target) & mask).sum() / denom)
