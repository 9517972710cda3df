"""Lightweight runtime contracts for numpy array seams.

The identification → clustering → simulation pipeline is a long chain of
bare ``np.ndarray`` handoffs; a silently broadcast shape mismatch or a
NaN that sneaks past a gap mask corrupts results without raising.  This
module provides three tools applied at the highest-risk seams:

* :func:`check_shapes` — a decorator declaring symbolic shape specs for
  array arguments (and optionally the return value), e.g.
  ``@check_shapes(temperatures="n p", inputs="n m")``.  Symbols are
  unified across arguments, so misaligned first dimensions raise
  immediately with both shapes in the message.
* :func:`ensure_finite` — assert every (or optionally any-finite) entry
  of an array is finite.
* :func:`ensure_unit_range` — assert all *finite* entries fall inside a
  physical range (NaN gap markers are ignored).

All checks raise :class:`repro.errors.ContractError` and are governed by
the ``REPRO_CONTRACTS`` environment variable: set ``REPRO_CONTRACTS=off``
(or ``0``/``false``/``no``) before import and :func:`check_shapes`
returns the undecorated function — benchmarks pay literally zero cost.
At runtime, :func:`set_enabled` / :func:`disabled` toggle the checks for
tests.

Shape-spec mini-language
------------------------
A spec is a whitespace- or comma-separated token list, one token per
dimension:

* an integer (``"2 p"``) pins that dimension exactly,
* a name (``"n"``, ``"p"``) binds on first use and must match thereafter
  across *all* specs of the call, including the return spec,
* ``*`` matches any size.

``None`` argument values are skipped (optional arrays).
"""

from __future__ import annotations

import functools
import inspect
import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, TypeVar

import numpy as np

from repro.errors import ContractError

__all__ = [
    "check_shapes",
    "contracts_enabled",
    "disabled",
    "ensure_finite",
    "ensure_unit_range",
    "set_enabled",
]

ENV_VAR = "REPRO_CONTRACTS"

F = TypeVar("F", bound=Callable[..., Any])


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "on").strip().lower() not in ("off", "0", "false", "no")


_ENABLED = _env_enabled()


def contracts_enabled() -> bool:
    """Whether contract checks currently run."""
    return _ENABLED


def set_enabled(flag: bool) -> None:
    """Turn contract checking on or off at runtime.

    Note: if ``REPRO_CONTRACTS=off`` was set at import time, functions
    were decorated with the identity and cannot be re-armed; this switch
    affects :func:`ensure_finite`/:func:`ensure_unit_range` and any
    wrapper created while checking was on.
    """
    global _ENABLED
    _ENABLED = bool(flag)


@contextmanager
def disabled() -> Iterator[None]:
    """Context manager suspending contract checks (for tests/benchmarks)."""
    previous = _ENABLED
    set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


def _parse_spec(spec: str) -> Tuple[str, ...]:
    tokens = tuple(t for t in spec.replace(",", " ").split() if t)
    if not tokens:
        raise ContractError(f"empty shape spec {spec!r}")
    return tokens


def _check_one(
    func_name: str,
    arg_name: str,
    value: Any,
    tokens: Tuple[str, ...],
    bindings: Dict[str, int],
) -> None:
    shape = getattr(value, "shape", None)
    if shape is None:
        shape = np.shape(value)
    if len(shape) != len(tokens):
        raise ContractError(
            f"{func_name}: {arg_name} has {len(shape)} dimension(s) {tuple(shape)}, "
            f"expected {len(tokens)} per spec {' '.join(tokens)!r}"
        )
    for axis, (token, size) in enumerate(zip(tokens, shape)):
        if token == "*":
            continue
        if token.lstrip("-").isdigit():
            if int(token) != size:
                raise ContractError(
                    f"{func_name}: {arg_name} axis {axis} has size {size}, "
                    f"spec requires {token}"
                )
            continue
        bound = bindings.get(token)
        if bound is None:
            bindings[token] = int(size)
        elif bound != size:
            raise ContractError(
                f"{func_name}: {arg_name} axis {axis} has size {size}, but "
                f"{token!r} was already bound to {bound} by an earlier argument "
                f"(shapes are inconsistent)"
            )


def check_shapes(ret: Optional[str] = None, **specs: str) -> Callable[[F], F]:
    """Decorator declaring symbolic shape contracts on array parameters.

    Parameters
    ----------
    ret:
        Optional spec for the return value, unified against the same
        symbol bindings as the arguments.
    **specs:
        ``parameter_name="dim dim ..."`` shape specs (see module docs).

    With ``REPRO_CONTRACTS=off`` at import time the decorator is the
    identity — the wrapped function is returned unchanged.
    """
    parsed = {name: _parse_spec(spec) for name, spec in specs.items()}
    parsed_ret = _parse_spec(ret) if ret is not None else None

    def decorate(func: F) -> F:
        if not _ENABLED:
            return func
        signature = inspect.signature(func)
        unknown = set(parsed) - set(signature.parameters)
        if unknown:
            raise ContractError(
                f"check_shapes on {func.__qualname__}: spec names {sorted(unknown)} "
                "are not parameters"
            )

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _ENABLED:
                return func(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bindings: Dict[str, int] = {}
            for name, tokens in parsed.items():
                if name not in bound.arguments:
                    continue
                value = bound.arguments[name]
                if value is None:
                    continue
                _check_one(func.__qualname__, name, value, tokens, bindings)
            result = func(*args, **kwargs)
            if parsed_ret is not None and result is not None:
                _check_one(func.__qualname__, "return value", result, parsed_ret, bindings)
            return result

        return wrapper  # type: ignore[return-value]

    return decorate


def ensure_finite(value: Any, name: str = "array") -> Any:
    """Raise :class:`ContractError` unless every entry of ``value`` is finite.

    Returns ``value`` unchanged so calls can be inlined in expressions.
    No-op when contracts are disabled.
    """
    if not _ENABLED:
        return value
    arr = np.asarray(value)
    if not np.all(np.isfinite(arr)):
        bad = int(arr.size - np.count_nonzero(np.isfinite(arr)))
        raise ContractError(f"{name} contains {bad} non-finite entr{'y' if bad == 1 else 'ies'}")
    return value


def ensure_unit_range(
    value: Any,
    lo: float,
    hi: float,
    name: str = "value",
) -> Any:
    """Raise unless all *finite* entries of ``value`` lie in ``[lo, hi]``.

    NaN entries are ignored — in this repo NaN marks sensor gaps, which
    are legitimate.  Use this for physical-plausibility bounds (°C in a
    conditioned room, fractions in [0, 1], non-negative flows).
    No-op when contracts are disabled.
    """
    if not _ENABLED:
        return value
    if hi < lo:
        raise ContractError(f"{name}: invalid range [{lo}, {hi}]")
    arr = np.asarray(value, dtype=float)
    finite = np.isfinite(arr)
    if not finite.any():
        return value
    # Reduce over the finite entries where they lie: a NaN-filled copy
    # would double the memory of a whole simulation chunk for the check.
    low = float(np.min(arr, where=finite, initial=np.inf))
    high = float(np.max(arr, where=finite, initial=-np.inf))
    if low < lo or high > hi:
        raise ContractError(
            f"{name} has entries in [{low:.6g}, {high:.6g}] outside the physical "
            f"range [{lo:.6g}, {hi:.6g}]"
        )
    return value
