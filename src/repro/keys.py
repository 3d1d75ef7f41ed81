"""Frozen dataclasses that make up the planner's memo keys.

Every planner stage is memoized on a tuple holding
:class:`~repro.models.layers.ModelSpec`,
:class:`~repro.gpu.specs.GPUSpec` and
:class:`~repro.gpu.energy_model.WorkProfile` values.  A dataclass hash
walks every field on every dict probe (a gpt3-175b ``ModelSpec`` holds
97 layer specs), and the plan store's content digest
(:func:`repro.core.store.stable_key`) canonicalizes every field again.
:func:`key_part` lets both be computed once per instance.
"""

from __future__ import annotations

import dataclasses

#: Instance-dict entries holding the cached field hash and the cached
#: canonical JSON text (written by :mod:`repro.core.store`).
HASH_SLOT = "_key_hash"
TEXT_SLOT = "_key_text"


def key_part(cls):
    """Class decorator for a frozen dataclass used inside memo keys.

    Replaces the generated ``__hash__`` with one cached on the instance
    (over the same fields ``__eq__`` compares) and marks the class so
    :mod:`repro.core.store` caches its canonical text on the instance
    too.  Frozen fields cannot change, so neither cache goes stale as
    long as a mutable field value (``ModelSpec.extra``) is not mutated
    after construction.  Pickles and copies drop both caches: ``str``
    hashes are salted per process.  Apply it above
    ``@dataclass(frozen=True)``.
    """
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen:
        raise TypeError(f"{cls.__name__} must be a frozen dataclass")
    names = tuple(f.name for f in dataclasses.fields(cls) if f.compare)

    def __hash__(self) -> int:
        cached = self.__dict__.get(HASH_SLOT)
        if cached is None:
            cached = hash(tuple(getattr(self, name) for name in names))
            self.__dict__[HASH_SLOT] = cached
        return cached

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items()
                if name not in (HASH_SLOT, TEXT_SLOT)}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    cls._key_part = True
    return cls
