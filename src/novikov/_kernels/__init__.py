"""The mod-p kernels: the hand-written pure-Python predicates of ``pure``,
re-exported.  No library module imports them; they are the independent
oracle the object path and the search are tested against."""

from . import pure
from .pure import (
    bilform_invariant_ok,
    enumerate_novikov_dim2,
    enybe_ok,
    ext_o_regular_ok,
    hkappa_ok,
    invariant_symmetric_ok,
    novikov_ok,
    nybe_ok,
    o_nybe_ok,
    product,
    rb_ok,
)

BACKEND = "pure"
impl = pure  # the module behind the re-exports; perfbench's tracer wraps its functions
