"""Monte Carlo validation: i.i.d. block sampling, stochastic per-symbol
decoding under shared randomness, empirical distortion/perception
measurement, and a desk-scale random-codebook-with-binning experiment.

All randomness flows from explicit integer seeds expanded through the
counter-based Philox generator, so encoder and decoder can share one seed
as their common randomness and every trial is bit-reproducible. Derived
streams are keyed as (seed, trial, role) tuples through SeedSequence; no
global random state is touched anywhere.

One trial loop serves the decoder trials and the binning experiment: trial
t samples (S, X, Y) on stream (seed, t, 0) and the caller reconstructs
from (X, Y) on stream (seed, t, 1). Each report also carries the signed
perception Phat(Shat = 0) - Phat(S = 0), its mean and standard error.

The binning experiment replaces typical-set machinery, which is vacuous at
block lengths this small, with minimum-Hamming-distance selection: the
encoder picks the codeword closest to its observation block, transmits the
codeword's bin index, and the decoder picks within that bin the codeword
closest to its side-information block. Codewords are dealt into bins
round-robin after a uniform shuffle, so equal codebook and bin rates give
singleton bins and the bin decoding step can never fail.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .rdpf_solver import DecoderLaw, shat_marginal
from .semantic_model import SemanticModel

_CODEBOOK_LOG2_CAP = 24.0
_CODEBOOK_CHUNK = 1 << 16  # codeword symbols drawn as float64 uniforms at a time
_SUB_BLOCK = 100  # sub-block length of the decoder trials' blockwise perception


def derive_seed(base: int, *parts: int) -> int:
    """A 64-bit stream seed deterministically derived from a base seed and
    integer role parts, all non-negative."""
    key = (int(base),) + tuple(int(p) for p in parts)
    if min(key) < 0:
        raise DomainError(f"seed and role parts must be non-negative, got {key}")
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & (2**64 - 1))))


@dataclass(frozen=True)
class TrialConfig:
    """Parameters of a Monte Carlo run.

    ``seed`` is the common randomness shared by encoder and decoder;
    ``rate_R1``/``rate_R2`` are the codebook and bin rates in bits per
    source symbol.
    """

    n: int
    trials: int
    seed: int
    rate_R1: float = 0.0
    rate_R2: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"block length must be positive, got {self.n}")
        if self.trials < 1:
            raise DomainError(f"trial count must be positive, got {self.trials}")
        if not (self.rate_R1 >= self.rate_R2 >= 0.0):
            raise DomainError(
                f"need rate_R1 >= rate_R2 >= 0, got {self.rate_R1}, {self.rate_R2}"
            )


@dataclass(frozen=True)
class TrialReport:
    """Aggregated empirical statistics of a Monte Carlo run.

    empirical_P_marginal pools all trials before taking the total
    variation; empirical_P_blockwise averages the per-block total
    variation, which is the empirical-perception reading. empirical_P_signed
    averages the per-trial Phat(Shat = 0) - Phat(S = 0). Standard errors
    are reported when at least two trials were run.
    """

    empirical_D: float
    empirical_D_se: float | None
    empirical_P_marginal: float
    empirical_P_blockwise: float
    empirical_P_signed: float
    empirical_P_signed_se: float | None
    bin_decode_failures: int
    seeds_used: tuple[int, ...]
    trials: int
    n: int


@dataclass(frozen=True)
class BlockMetrics:
    """Single-block fragment of a TrialReport."""

    empirical_D: float
    empirical_P_marginal: float
    empirical_P_blockwise: float


def sample_block(model: SemanticModel, n: int, seed: int):
    """n i.i.d. draws of (S, X, Y) from the model joint, deterministic in seed.

    Each uniform u picks the cell whose index counts the cumulative
    thresholds at or below u. The thresholds are sorted, so the count is
    ``searchsorted(cum, u, side="right")``; leaving out ``cum[-1]`` clips it
    to the last cell when rounding leaves ``cum[-1]`` below 1. The uint8
    index unpacks into uint8 S, X and Y without a copy to another dtype.
    """
    if n < 1:
        raise DomainError(f"block length must be positive, got {n}")
    cum = np.cumsum(model.joint.masses.ravel())
    u = _rng(seed).random(n)
    idx = np.zeros(n, dtype=np.uint8)
    for threshold in cum[:-1]:
        idx += u >= threshold
    return idx >> 2, (idx >> 1) & 1, idx & 1


def apply_decoder(law: DecoderLaw, x_block: np.ndarray, y_block: np.ndarray,
                  seed: int) -> np.ndarray:
    """Per-symbol stochastic decoding of binary (X, Y) blocks under a shared
    seed; P(Shat = 0) is looked up in the flat table at 2x + y."""
    x_block = np.asarray(x_block)
    y_block = np.asarray(y_block)
    if x_block.shape != y_block.shape:
        raise DomainError(
            f"block length mismatch: {x_block.shape} vs {y_block.shape}"
        )
    if x_block.size and not {x_block.min(), x_block.max(),
                             y_block.min(), y_block.max()} <= {0, 1}:
        raise DomainError("decoder input symbols must be 0 or 1")
    p_zero = law.prob_zero_table().ravel().take(2 * x_block + y_block)
    u = _rng(seed).random(x_block.shape)  # C order: n-D blocks draw as their ravel
    return (u >= p_zero).view(np.uint8)


def _zeros(block: np.ndarray) -> int:
    return block.size - np.count_nonzero(block)


def _freq_zero(block: np.ndarray) -> float:
    return _zeros(block) / block.size


def empirical_metrics(s_block: np.ndarray, shat_block: np.ndarray,
                      block_length: int) -> BlockMetrics:
    """Empirical distortion and perception of one reconstructed block.

    ``block_length`` is the sub-block size for the empirical perception
    statistic and must divide the block length; the marginal statistic
    pools the whole block.
    """
    s_block = np.asarray(s_block)
    shat_block = np.asarray(shat_block)
    if s_block.shape != shat_block.shape:
        raise DomainError(
            f"block length mismatch: {s_block.shape} vs {shat_block.shape}"
        )
    n = s_block.size
    if block_length < 1 or n % block_length != 0:
        raise DomainError(
            f"sub-block length {block_length} does not divide block length {n}"
        )
    empirical_d = float(np.count_nonzero(s_block != shat_block) / n)
    fs = (s_block.reshape(-1, block_length) == 0).mean(axis=1)
    fh = (shat_block.reshape(-1, block_length) == 0).mean(axis=1)
    p_blockwise = float(np.abs(fs - fh).mean())
    return BlockMetrics(
        empirical_D=empirical_d,
        empirical_P_marginal=abs(_freq_zero(s_block) - _freq_zero(shat_block)),
        empirical_P_blockwise=p_blockwise,
    )


def _mean_and_se(values) -> tuple[float, float | None]:
    values = np.asarray(values, dtype=float)
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size >= 2 else None
    return float(values.mean()), se


def _run_trials(model: SemanticModel, cfg: TrialConfig, reconstruct,
                sub_block: int) -> TrialReport:
    """The trial loop of every Monte Carlo run. Trial t draws (S, X, Y) on
    stream (seed, t, 0) and reconstructs with ``reconstruct(x, y, seed)`` on
    stream (seed, t, 1), which returns ``(shat, failed)``; ``sub_block`` is
    the sub-block length of the blockwise perception reading."""
    per_d, zeros, blockwise, seeds = [], [], [], []
    failures = 0
    for t in range(cfg.trials):
        block_seed = derive_seed(cfg.seed, t, 0)
        s, x, y = sample_block(model, cfg.n, block_seed)
        shat, failed = reconstruct(x, y, derive_seed(cfg.seed, t, 1))
        m = empirical_metrics(s, shat, sub_block)
        per_d.append(m.empirical_D)
        zeros.append((_zeros(s), _zeros(shat)))
        blockwise.append(m.empirical_P_blockwise)
        seeds.append(block_seed)
        failures += int(failed)
    zeros_s, zeros_shat = np.array(zeros).T
    mean_d, se_d = _mean_and_se(per_d)
    signed, signed_se = _mean_and_se(zeros_shat / cfg.n - zeros_s / cfg.n)
    symbols = cfg.trials * cfg.n
    return TrialReport(
        empirical_D=mean_d,
        empirical_D_se=se_d,
        empirical_P_marginal=float(abs(zeros_s.sum() / symbols - zeros_shat.sum() / symbols)),
        empirical_P_blockwise=float(np.mean(blockwise)),
        empirical_P_signed=signed,
        empirical_P_signed_se=signed_se,
        bin_decode_failures=failures,
        seeds_used=tuple(seeds),
        trials=cfg.trials,
        n=cfg.n,
    )


def run_decoder_trials(model: SemanticModel, law: DecoderLaw, cfg: TrialConfig) -> TrialReport:
    """Repeated sample-and-decode trials of a fixed per-symbol decoding rule.
    The blockwise perception reading uses sub-blocks of ``_SUB_BLOCK``
    symbols, or the whole block when that length does not divide it."""
    sub_block = _SUB_BLOCK if cfg.n % _SUB_BLOCK == 0 else cfg.n
    return _run_trials(model, cfg, lambda x, y, seed: (apply_decoder(law, x, y, seed), False),
                       sub_block)


def _codebook_sizes(cfg: TrialConfig) -> tuple[int, int]:
    log2_words = cfg.n * cfg.rate_R1
    if log2_words > _CODEBOOK_LOG2_CAP:
        raise ResourceLimitError(
            f"codebook of 2^{log2_words:.2f} words exceeds the desk-scale cap "
            f"of 2^{_CODEBOOK_LOG2_CAP:.0f}"
        )
    words = max(1, round(2.0 ** log2_words))
    bins = max(1, round(2.0 ** (cfg.n * cfg.rate_R2)))
    return words, min(bins, words)


def random_binning_trial(model: SemanticModel, cfg: TrialConfig,
                         target_law: DecoderLaw) -> TrialReport:
    """Random-codebook-with-binning experiment at desk scale.

    Per trial: draw a fresh codebook of n-blocks i.i.d. from the
    reconstruction marginal induced by ``target_law``, deal the codewords
    into bins round-robin after a uniform shuffle, let the encoder send the
    bin index of the codeword nearest its observation block, and let the
    decoder resolve the bin with its side-information block. A bin decode
    failure means the decoder picked a different codeword than the encoder.
    """
    words, bins = _codebook_sizes(cfg)
    p_one = float(shat_marginal(model, target_law).masses[1])

    def reconstruct(x, y, seed):
        rng = _rng(seed)
        # row chunks draw the same uniforms, in the same order, as one
        # (words, n) draw, without holding eight bytes per codeword symbol
        codebook = np.empty((words, cfg.n), dtype=np.uint8)
        rows = max(1, _CODEBOOK_CHUNK // cfg.n)
        for start in range(0, words, rows):
            chunk = codebook[start:start + rows]
            np.less(rng.random(chunk.shape), p_one, out=chunk)
        bin_of = np.empty(words, dtype=np.int64)
        bin_of[rng.permutation(words)] = np.arange(words) % bins
        encoder_pick = int((codebook != x[None, :]).sum(axis=1).argmin())
        members = np.flatnonzero(bin_of == bin_of[encoder_pick])
        decoder_pick = int(
            members[(codebook[members] != y[None, :]).sum(axis=1).argmin()]
        )
        return codebook[decoder_pick], decoder_pick != encoder_pick

    return _run_trials(model, cfg, reconstruct, cfg.n)
