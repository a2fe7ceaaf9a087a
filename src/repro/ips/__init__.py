"""IP cores (pearls) used in the paper's evaluation and the examples.

* :mod:`repro.ips.reed_solomon` — full RS(n, k) codec over GF(2^8) and
  its streaming decoder pearl;
* :mod:`repro.ips.viterbi` — rate-1/2 convolutional encoder and Viterbi
  decoder, with the paper's exact 5/4/198 wrapper signature;
* :mod:`repro.ips.fir` — a folded single-MAC FIR pearl;
* :mod:`repro.ips.signatures` — the Table-1 complexity-signature
  schedules for wrapper synthesis.

Public names resolve lazily: each imports its defining submodule on
first access (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".fir": ("FIRPearl", "fir_reference", "fir_schedule"),
        ".gf": (
            "FIELD_SIZE",
            "GFError",
            "gf_add",
            "gf_div",
            "gf_exp",
            "gf_inv",
            "gf_log",
            "gf_mul",
            "gf_pow",
            "poly_add",
            "poly_derivative",
            "poly_divmod",
            "poly_eval",
            "poly_mul",
            "poly_scale",
            "poly_strip",
        ),
        ".reed_solomon": (
            "ReedSolomon",
            "RSCode",
            "RSDecoderPearl",
            "RSError",
            "generator_poly",
            "rs_decoder_schedule",
        ),
        ".signatures": (
            "TABLE1_SIGNATURES",
            "check_signature",
            "rs_table1_schedule",
            "viterbi_table1_schedule",
        ),
        ".viterbi": (
            "ConvCode",
            "ConvEncoder",
            "ViterbiDecoder",
            "ViterbiPearl",
            "decode_sequence",
            "viterbi_schedule",
        ),
    },
)
