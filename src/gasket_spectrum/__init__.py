"""Dimension spectra of Sierpinski gasket self-intersections in bases 2 < q < 3.

Submodules: words (ternary words and difference blocks), bases (ladder roots
and regime classification), expansions (greedy and unique expansions),
matching (pair alphabet and shift verifiers), spectrum (densities and the
three-regime spectrum), geometry (cylinder point clouds and rendering),
cli (command-line front end).

The public names below, and the submodules, load on first access (PEP 562),
so a CLI command imports only the modules it runs.
"""

__version__ = "0.1.0"  # the one version string; pyproject.toml reads it

# Each public name by its home module.
_EXPORTS = {
    "bases": ("BaseValue", "RegimeLabel", "base_root", "classify", "kl_constant", "ladder_word"),
    "expansions": ("KLTailDescriptor", "evaluate", "evaluate_exact", "greedy_expand",
                   "is_unique_expansion", "kl_tail", "quasi_greedy_alpha", "uniqueness_verdict"),
    "matching": ("MatchReport", "analyze", "b_blocks", "e_seq", "zip_seqs"),
    "spectrum": ("DimensionSpectrum", "SFTSpec", "alternating_density", "dimension",
                 "interval_witness", "sft_densities", "sft_spec", "spectrum_of", "zero_fraction"),
    "words": ("Seq", "parse_seq", "format_seq", "reflect", "tm_block", "tm_diff",
              "thue_morse_bit"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(("bases", "cli", "config", "errors", "expansions", "geometry", "matching",
                         "report", "selftest", "spectrum", "words"))

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    from importlib import import_module

    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})
