"""Reasoning toolkit for the simple-minded output operation of input/output logic.

Decide norm-conditioned obligations semantically or proof-theoretically
(with checkable certificates), replicate the possible-worlds lifting of
the operation with a finite countermodel finder, and demonstrate why the
naive Boolean encoding of nested entailment is unsound.

Everything in the package is immutable and pure; all functions are safe
to call concurrently.
"""

# The public API is the union of these layers' ``__all__`` lists.  They load on
# the first lookup of a name the package does not hold yet (PEP 562), so that
# ``iolog.cli`` can import only the layers a subcommand uses.
_LAYERS = ("formula", "norms", "entail", "output", "derivation", "worlds")


def __getattr__(name: str):
    if "__all__" not in globals():
        names = []
        for layer in _LAYERS:  # by ``__import__``, which ``-X importtime`` reports
            module = __import__(f"{__name__}.{layer}", fromlist=["__all__"])
            globals().update({n: getattr(module, n) for n in module.__all__})
            names += module.__all__
        # The regression matrix loads with the layers, so every library module is
        # loaded once the API is in use, as it was when the package imported them all.
        __import__(f"{__name__}.reference")
        # Published last: a thread that sees ``__all__`` sees every public name bound,
        # and one that does not loads the layers itself, binding the same objects.
        globals()["__all__"] = names
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
