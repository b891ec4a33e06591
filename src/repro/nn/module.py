"""Module/Parameter containers, in the spirit of ``torch.nn``.

A :class:`Module` discovers its parameters by walking its attributes
(parameters, child modules, and lists of either), which is all the GNN stack
needs.  State dicts are plain ``{name: ndarray}`` mappings so models can be
checkpointed with ``numpy.savez``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import AutogradError
from repro.nn.init import xavier_uniform, zeros_
from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A tensor registered as trainable model state."""

    #: Marks parameters for the per-example gradient capture, which
    #: intercepts parameter-gradient reductions at segment granularity
    #: (see :mod:`repro.nn.per_example`).
    _is_parameter = True

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


#: Bumped on every Module attribute assignment; parameter-list caches are
#: validated against it, so structural edits anywhere invalidate everywhere.
_STRUCTURE_VERSION = 0


class Module:
    """Base class for neural-network components."""

    #: Training-mode flag (class default; instances override via train()).
    training: bool = True

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __setattr__(self, name, value) -> None:
        # Any attribute assignment anywhere in a module tree may add or
        # remove parameters, including on a nested child the parent cannot
        # see — so bump a process-wide structure version that every cached
        # parameter list is validated against (see parameters()).
        global _STRUCTURE_VERSION
        _STRUCTURE_VERSION += 1
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # Train / eval mode
    # ------------------------------------------------------------------ #
    def _child_modules(self) -> Iterator["Module"]:
        for value in vars(self).values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for element in value:
                    if isinstance(element, Module):
                        yield element

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects e.g. :class:`Dropout`)."""
        self.training = bool(mode)
        for child in self._child_modules():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch to inference mode recursively."""
        return self.train(False)

    # ------------------------------------------------------------------ #
    # Parameter discovery
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth first."""
        for name, value in vars(self).items():
            if name == "_parameter_cache":
                continue
            path = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for index, element in enumerate(value):
                    if isinstance(element, Parameter):
                        yield f"{path}.{index}", element
                    elif isinstance(element, Module):
                        yield from element.named_parameters(prefix=f"{path}.{index}.")

    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module and its children.

        The list is cached (parameter discovery walks the attribute tree,
        which showed up in per-example gradient profiles) and rebuilt
        whenever any module's attributes change.
        """
        cache = self.__dict__.get("_parameter_cache")
        if cache is not None and cache[0] == _STRUCTURE_VERSION:
            return cache[1]
        parameters = [parameter for _, parameter in self.named_parameters()]
        object.__setattr__(self, "_parameter_cache", (_STRUCTURE_VERSION, parameters))
        return parameters

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(parameter.size for parameter in self.parameters())

    def zero_grad(self) -> None:
        """Clear every parameter's accumulated gradient."""
        for parameter in self.parameters():
            parameter.zero_grad()

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter's value, keyed by dotted name."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load values saved by :meth:`state_dict` (strict name/shape match)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise AutogradError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, parameter in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != parameter.shape:
                raise AutogradError(
                    f"shape mismatch for {name}: {value.shape} vs {parameter.shape}"
                )
            parameter.data = value.copy()

    # ------------------------------------------------------------------ #
    # Flat-vector helpers (used by DP-SGD and the gradient fan-out)
    # ------------------------------------------------------------------ #
    def parameter_vector(self) -> np.ndarray:
        """All parameter values flattened into one vector.

        The layout matches :meth:`gradient_vector` (parameter-discovery
        order), so a vector from one model instance loads into any other
        instance built from the same configuration — this is how the
        gradient fan-out ships weights to worker processes.
        """
        chunks = [parameter.data.reshape(-1) for parameter in self.parameters()]
        return np.concatenate(chunks) if chunks else np.empty(0)

    def load_parameter_vector(self, vector: np.ndarray) -> None:
        """Load values saved by :meth:`parameter_vector` (strict size match)."""
        vector = np.asarray(vector, dtype=np.float64)
        expected = sum(parameter.size for parameter in self.parameters())
        if vector.shape != (expected,):
            raise AutogradError(f"parameter vector must have shape ({expected},)")
        offset = 0
        for parameter in self.parameters():
            parameter.data = (
                vector[offset : offset + parameter.size].reshape(parameter.shape).copy()
            )
            offset += parameter.size

    def gradient_vector(self) -> np.ndarray:
        """All parameter gradients flattened into one vector (zeros if None)."""
        chunks = []
        for parameter in self.parameters():
            if parameter.grad is None:
                chunks.append(np.zeros(parameter.size))
            else:
                chunks.append(parameter.grad.reshape(-1))
        return np.concatenate(chunks) if chunks else np.empty(0)

    def apply_gradient_vector(self, vector: np.ndarray) -> None:
        """Unflatten ``vector`` back into every parameter's ``.grad``."""
        expected = sum(parameter.size for parameter in self.parameters())
        if vector.shape != (expected,):
            raise AutogradError(f"gradient vector must have shape ({expected},)")
        offset = 0
        for parameter in self.parameters():
            parameter.grad = vector[offset : offset + parameter.size].reshape(
                parameter.shape
            ).copy()
            offset += parameter.size


class Linear(Module):
    """Affine map ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(xavier_uniform((in_features, out_features), rng=rng))
        self.bias = Parameter(zeros_((out_features,))) if bias else None

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs @ self.weight
        if self.bias is not None:
            output = output + self.bias
        return output

    def infer(self, inputs: np.ndarray) -> np.ndarray:
        """Autograd-free :meth:`forward` on an array: the same product and sum."""
        output = inputs @ self.weight.data
        if self.bias is not None:
            output += self.bias.data
        return output

    def __repr__(self) -> str:
        return f"Linear({self.in_features} -> {self.out_features})"


class Sequential(Module):
    """Chain of modules and/or plain callables applied in order."""

    def __init__(self, *layers) -> None:
        self.layers = list(layers)

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs
        for layer in self.layers:
            output = layer(output)
        return output


class Dropout(Module):
    """Inverted dropout: zero each activation with probability ``rate``.

    Active only in training mode; surviving activations are scaled by
    ``1/(1 − rate)`` so expectations match at evaluation time.  Note that
    dropout's utility under DP-SGD is debated (the noise already
    regularises); it is provided for the non-private library use case.
    """

    def __init__(self, rate: float, rng: int | np.random.Generator | None = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise AutogradError(f"dropout rate must be in [0, 1), got {rate}")
        from repro.utils.rng import ensure_rng

        self.rate = float(rate)
        self._rng = ensure_rng(rng)

    def forward(self, inputs: Tensor) -> Tensor:
        if not self.training or self.rate == 0.0:
            return inputs
        keep = (self._rng.random(inputs.shape) >= self.rate).astype(np.float64)
        return inputs * Tensor(keep / (1.0 - self.rate))
