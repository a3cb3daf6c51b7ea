"""Dimension spectra of Sierpinski gasket self-intersections in bases 2 < q < 3.

Submodules: words (ternary words and difference blocks), bases (ladder roots
and regime classification), expansions (greedy and unique expansions),
matching (pair alphabet and shift verifiers), spectrum (densities and the
three-regime spectrum), geometry (cylinder point clouds and rendering),
cli (command-line front end).
"""

__version__ = "0.1.0"  # the one version string; pyproject.toml reads it

from .bases import BaseValue, RegimeLabel, base_root, classify, kl_constant, ladder_word
from .expansions import (
    KLTailDescriptor,
    evaluate,
    evaluate_exact,
    greedy_expand,
    is_unique_expansion,
    kl_tail,
    quasi_greedy_alpha,
    uniqueness_verdict,
)
from .matching import MatchReport, analyze, b_blocks, e_seq, zip_seqs
from .spectrum import (
    DimensionSpectrum,
    SFTSpec,
    alternating_density,
    dimension,
    interval_witness,
    sft_densities,
    sft_spec,
    spectrum_of,
    zero_fraction,
)
from .words import Seq, parse_seq, format_seq, reflect, tm_block, tm_diff, thue_morse_bit

__all__ = [
    "BaseValue", "RegimeLabel", "base_root", "classify", "kl_constant", "ladder_word",
    "KLTailDescriptor", "evaluate", "evaluate_exact", "greedy_expand",
    "is_unique_expansion", "kl_tail", "quasi_greedy_alpha", "uniqueness_verdict",
    "MatchReport", "analyze", "b_blocks", "e_seq", "zip_seqs",
    "DimensionSpectrum", "SFTSpec", "alternating_density", "dimension",
    "interval_witness", "sft_densities", "sft_spec", "spectrum_of", "zero_fraction",
    "Seq", "parse_seq", "format_seq", "reflect", "tm_block", "tm_diff", "thue_morse_bit",
    "__version__",
]
