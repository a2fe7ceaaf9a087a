"""Reed-Solomon codec and its latency-insensitive pearl.

The paper evaluates the SP on a GAUT-synthesized Reed-Solomon decoder
IP (Table 1: 4 ports, 2957 sync operations, 1 free-run cycle).  We
implement a complete RS(n, k) codec over GF(2^8) — systematic LFSR
encoder; syndrome computation; Berlekamp-Massey; Chien search; Forney
algorithm — and wrap it as a cycle-scheduled pearl:

* one sync op per received symbol (input-streaming phase),
* one sync op per corrected symbol (output-streaming phase),
* a final status op reporting the correction count,
* one free-run burst for the algebraic decode between the phases.

The default RS(255, 239) pearl therefore has a long, wait-dominated
schedule like the paper's IP; the exact 4/2957/1 Table-1 signature is
provided by :func:`repro.ips.signatures.rs_table1_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..core.schedule import IOSchedule, SyncPoint
from ..lis.pearl import Pearl
from .gf import (
    gf_exp,
    gf_inv,
    gf_mul,
    gf_pow,
    poly_divmod,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_strip,
)


class RSError(ValueError):
    """Raised for invalid code parameters or uncorrectable words."""


def generator_poly(n_parity: int, first_root: int = 0) -> list[int]:
    """g(x) = prod (x - alpha^(first_root + i)) for i in 0..n_parity-1."""
    g = [1]
    for i in range(n_parity):
        g = poly_mul(g, [1, gf_exp(first_root + i)])
    return g


@dataclass(frozen=True)
class RSCode:
    """An RS(n, k) code over GF(2^8); t = (n - k) // 2 correctable."""

    n: int = 255
    k: int = 239
    first_root: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.n <= 255:
            raise RSError(f"invalid RS({self.n},{self.k}) parameters")
        if (self.n - self.k) % 2:
            raise RSError("n - k must be even (t symbol corrections)")

    @property
    def n_parity(self) -> int:
        return self.n - self.k

    @property
    def t(self) -> int:
        return self.n_parity // 2


class ReedSolomon:
    """Encoder/decoder pair for one :class:`RSCode`."""

    def __init__(self, code: RSCode | None = None) -> None:
        self.code = code or RSCode()
        self._gen = generator_poly(self.code.n_parity, self.code.first_root)

    # -- encoding ----------------------------------------------------------

    def encode(self, message: Sequence[int]) -> list[int]:
        """Systematic encoding: message followed by parity symbols."""
        code = self.code
        if len(message) != code.k:
            raise RSError(
                f"message length {len(message)} != k = {code.k}"
            )
        padded = list(message) + [0] * code.n_parity
        _q, remainder = poly_divmod(padded, self._gen)
        if remainder == [0]:
            parity = [0] * code.n_parity
        else:
            parity = [0] * (code.n_parity - len(remainder)) + remainder
        return list(message) + parity

    # -- decoding ------------------------------------------------------------

    def syndromes(self, received: Sequence[int]) -> list[int]:
        code = self.code
        return [
            poly_eval(received, gf_exp(code.first_root + i))
            for i in range(code.n_parity)
        ]

    def berlekamp_massey(self, synd: Sequence[int]) -> list[int]:
        """Error-locator polynomial sigma(x), highest degree first."""
        sigma = [1]
        prev_sigma = [1]
        length = 0
        m = 1
        b = 1
        for step, s in enumerate(synd):
            # Discrepancy: s + sum sigma_i * synd[step - i]
            delta = s
            for i in range(1, length + 1):
                coeff = sigma[len(sigma) - 1 - i] if i < len(sigma) else 0
                delta ^= gf_mul(coeff, synd[step - i])
            if delta == 0:
                m += 1
            elif 2 * length <= step:
                old_sigma = list(sigma)
                scale = gf_mul(delta, gf_inv(b))
                shifted = prev_sigma + [0] * m
                sigma = _poly_xor(sigma, _poly_scale(shifted, scale))
                length = step + 1 - length
                prev_sigma = old_sigma
                b = delta
                m = 1
            else:
                scale = gf_mul(delta, gf_inv(b))
                shifted = prev_sigma + [0] * m
                sigma = _poly_xor(sigma, _poly_scale(shifted, scale))
                m += 1
        return poly_strip(sigma)

    def chien_search(self, sigma: Sequence[int]) -> list[int]:
        """Error positions (indices into the received word)."""
        code = self.code
        positions = []
        for i in range(code.n):
            # X_j = alpha^j locates position n-1-j; test sigma(X^-1)=0.
            x_inv = gf_inv(gf_exp(i))
            if poly_eval(sigma, x_inv) == 0:
                positions.append(code.n - 1 - i)
        return positions

    def forney(
        self,
        synd: Sequence[int],
        sigma: Sequence[int],
        positions: Sequence[int],
    ) -> dict[int, int]:
        """Error magnitudes at the located positions."""
        code = self.code
        # Error evaluator omega(x) = [S(x) * sigma(x)] mod x^(2t).
        synd_poly = list(reversed(list(synd)))  # highest degree first
        omega_full = poly_mul(poly_strip(synd_poly), sigma)
        omega = omega_full[-code.n_parity:] if len(
            omega_full
        ) > code.n_parity else omega_full
        omega = poly_strip(omega)
        sigma_prime = poly_derivative(sigma)
        magnitudes: dict[int, int] = {}
        for position in positions:
            j = code.n - 1 - position
            x_inv = gf_inv(gf_exp(j))
            denom = poly_eval(sigma_prime, x_inv)
            if denom == 0:
                raise RSError("Forney denominator zero (decoder failure)")
            num = poly_eval(omega, x_inv)
            magnitude = gf_mul(
                gf_pow(gf_exp(j), 1 - self.code.first_root),
                gf_mul(num, gf_inv(denom)),
            )
            magnitudes[position] = magnitude
        return magnitudes

    def decode(
        self, received: Sequence[int]
    ) -> tuple[list[int], int]:
        """Correct ``received`` in place; returns (codeword, #errors).

        Raises :class:`RSError` when more than t errors are present and
        detected as uncorrectable.
        """
        code = self.code
        if len(received) != code.n:
            raise RSError(
                f"received length {len(received)} != n = {code.n}"
            )
        synd = self.syndromes(received)
        if not any(synd):
            return list(received), 0
        sigma = self.berlekamp_massey(synd)
        n_errors = len(sigma) - 1
        if n_errors > code.t:
            raise RSError(
                f"{n_errors} errors exceed correction capability t={code.t}"
            )
        positions = self.chien_search(sigma)
        if len(positions) != n_errors:
            raise RSError("Chien search disagrees with locator degree")
        magnitudes = self.forney(synd, sigma, positions)
        corrected = list(received)
        for position, magnitude in magnitudes.items():
            corrected[position] ^= magnitude
        if any(self.syndromes(corrected)):
            raise RSError("correction failed (residual syndromes)")
        return corrected, n_errors


def _poly_scale(p: Sequence[int], factor: int) -> list[int]:
    return [gf_mul(c, factor) for c in p]


def _poly_xor(p: Sequence[int], q: Sequence[int]) -> list[int]:
    result = [0] * max(len(p), len(q))
    for i, c in enumerate(reversed(p)):
        result[len(result) - 1 - i] ^= c
    for i, c in enumerate(reversed(q)):
        result[len(result) - 1 - i] ^= c
    return result


# -- the latency-insensitive pearl ------------------------------------------


def rs_decoder_schedule(
    code: RSCode, decode_run: int = 64
) -> IOSchedule:
    """The RS decoder pearl's natural cyclic schedule.

    Per period: n pops of ``sym_in`` (the last also carrying the
    ``decode_run`` free-run burst for the algebraic decode), k pushes of
    ``sym_out``, one status push on ``err_out``.
    """
    points = [SyncPoint({"sym_in"}, frozenset()) for _ in range(code.n - 1)]
    points.append(SyncPoint({"sym_in"}, frozenset(), run=decode_run))
    points.extend(
        SyncPoint(frozenset(), {"sym_out"}) for _ in range(code.k)
    )
    points.append(SyncPoint(frozenset(), {"err_out"}))
    return IOSchedule(["sym_in"], ["sym_out", "err_out"], points)


class RSDecoderPearl(Pearl):
    """Streaming RS decoder as a suspendable pearl.

    Consumes one received symbol per sync op; after the last symbol the
    free-run burst models the syndrome/BM/Chien/Forney pipeline; then
    streams the k corrected message symbols and an error-count token.
    Words with more than t errors are emitted uncorrected with error
    count ``-1`` (decoder failure flag), matching hardware behaviour.
    """

    def __init__(
        self,
        name: str = "rs_dec",
        code: RSCode | None = None,
        decode_run: int = 64,
    ) -> None:
        self.codec = ReedSolomon(code)
        super().__init__(
            name, rs_decoder_schedule(self.codec.code, decode_run)
        )
        self._word: list[int] = []
        self._corrected: list[int] = []
        self._errors = 0

    def on_sync(
        self, index: int, popped: Mapping[str, Any]
    ) -> Mapping[str, Any]:
        code = self.codec.code
        if index < code.n:
            self._word.append(int(popped["sym_in"]) & 0xFF)
            if index == code.n - 1:
                self._decode_word()
            return {}
        if index < code.n + code.k:
            position = index - code.n
            return {"sym_out": self._corrected[position]}
        # Final status op.
        errors = self._errors
        self._word = []
        return {"err_out": errors}

    def _decode_word(self) -> None:
        try:
            corrected, n_errors = self.codec.decode(self._word)
            self._corrected = corrected[: self.codec.code.k]
            self._errors = n_errors
        except RSError:
            self._corrected = list(self._word[: self.codec.code.k])
            self._errors = -1
