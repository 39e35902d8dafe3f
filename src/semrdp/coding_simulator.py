"""Monte Carlo validation: i.i.d. block sampling, stochastic per-symbol
decoding under shared randomness, empirical distortion/perception
measurement, and a desk-scale random-codebook-with-binning experiment.

All randomness flows from explicit integer seeds expanded through the
counter-based Philox generator, so encoder and decoder can share one seed
as their common randomness and every trial is bit-reproducible. Derived
streams are keyed as (seed, trial, role) tuples, hashed to SeedSequence's
64-bit word by this module's copy of its hash; no global random state is
touched anywhere.

One trial loop serves the decoder trials and the binning experiment: trial
t samples (S, X, Y) on stream (seed, t, 0) and the caller reconstructs
from (X, Y) on stream (seed, t, 1). A trial runs in chunks of whole
perception sub-blocks, and both streams continue across its chunks, so
every report equals that of one whole-block pass. Each report also carries
the signed perception Phat(Shat = 0) - Phat(S = 0), its mean and standard
error.

The binning experiment replaces typical-set machinery, which is vacuous at
block lengths this small, with minimum-Hamming-distance selection: the
encoder picks the codeword closest to its observation block, transmits the
codeword's bin index, and the decoder picks within that bin the codeword
closest to its side-information block. Codewords are dealt into bins
round-robin after a uniform shuffle, so equal codebook and bin rates give
singleton bins and the bin decoding step can never fail.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .rdpf_solver import DecoderLaw
from .semantic_model import SemanticModel

_CODEBOOK_LOG2_CAP = 24.0
_CODEBOOK_CHUNK = 1 << 16  # symbols drawn as float64 uniforms at a time (codebooks, trials)
_SUB_BLOCK = 100  # sub-block length of the decoder trials' blockwise perception
_MASK32 = 0xFFFFFFFF


def derive_seed(base: int, *parts: int) -> int:
    """The 64-bit key ``SeedSequence((base, *parts))`` generates from non-negative ints."""
    return _key_hash(tuple(map(int, (base, *parts))))


def _key_hash(key: tuple):
    """``SeedSequence(key).generate_state(1, np.uint64)[0]`` by a copy of its
    hash of the little-endian uint32 words of the key's non-negative ints.
    A part may be an array of one word per key: then every word is a uint64
    array, whose products keep their low 32 bits under the masks."""
    words = []
    for part in key:
        if isinstance(part, int) and part < 0:
            raise DomainError(f"seed and role parts must be non-negative, got {part}")
        words.append(part & _MASK32)
        while isinstance(part, int) and (part := part >> 32):
            words.append(part & _MASK32)
    words += [0] * (4 - len(words))  # zero words pad the pool to four
    if sizes := [w.size for w in words if isinstance(w, np.ndarray)]:
        words = [np.full(sizes[0], w, np.uint64) for w in words]
    const, mult = 0x43B0D7E5, 0x931E8875

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(dst, value):
        result = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(value)) & _MASK32
        pool[dst] = result ^ result >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        mix(dst, pool[src])
    for word, dst in itertools.product(words[4:], range(4)):
        mix(dst, word)
    const, mult = 0x8B51F9DD, 0x58F38DED
    return hashmix(pool[0]) | hashmix(pool[1]) << 32


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & (2**64 - 1))))


def _rekey(rng: np.random.Generator, seed: int) -> None:
    """Restart ``rng`` on ``_rng(seed)``'s stream, without a new Philox's OS entropy draw."""
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": (0,) * 4, "key": (seed, 0)},
        "buffer": (0,) * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


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
    idx = _sample_cells(np.cumsum(model.joint.masses.ravel())[:-1], _rng(seed), np.empty(n),
                        np.empty(n, dtype=bool), np.empty(n, dtype=np.uint8))
    return idx >> 2, (idx >> 1) & 1, idx & 1


def _sample_cells(thresholds, rng, u, mask, cells):
    """Fill the uint8 ``cells`` with the cell index 4s + 2x + y of one
    uniform each, drawn into ``u``: the count of ``thresholds`` at or below it."""
    rng.random(out=u)
    cells.fill(0)
    for threshold in thresholds:  # uint8 adds need no cast
        np.add(cells, np.greater_equal(u, threshold, out=mask).view(np.uint8), out=cells)
    return cells


def _decode_cells(table, cells, rng, p_zero=None, shat=None):
    """Shat of the int64 cells 2x + y, 1 where a uniform is at or above the
    cell's P(Shat = 0), into the given buffers; n-D cells draw in C order.
    Cells lie in 0..3, so ``mode="wrap"`` only skips the copy "raise" makes;
    the uniforms overwrite ``cells``, which the lookup is done with."""
    p_zero = np.take(table, cells, out=p_zero, mode="wrap")
    return np.greater_equal(rng.random(out=cells.view(np.float64)), p_zero, out=shat).view(np.uint8)


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
    cells = np.array(np.left_shift(x_block, 1) | y_block, dtype=np.int64, order="C")
    return _decode_cells(law.prob_zero_table().ravel(), cells, _rng(seed))


def _count_metrics(mismatches: int, ones: np.ndarray, sub_block: int) -> tuple:
    """Distortion, zero counts of S and Shat, and blockwise perception of one
    block, from its mismatch count and (2, blocks) counts of S = 1, Shat = 1."""
    n = ones.shape[1] * sub_block
    fs, fh = (sub_block - ones) / sub_block
    return mismatches / n, *(n - ones.sum(axis=1)).tolist(), float(np.abs(fs - fh).mean())


def _mean_and_se(values) -> tuple[float, float | None]:
    values = np.asarray(values, dtype=float)
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size >= 2 else None
    return float(values.mean()), se


def _run_trials(model: SemanticModel, cfg: TrialConfig, reconstruct, sub_block: int,
                step: int) -> TrialReport:
    """The trial loop of every Monte Carlo run. Trial t draws (S, X, Y) on
    stream (seed, t, 0) and reconstructs with ``reconstruct(cells, rng)`` on
    stream (seed, t, 1), mapping uint8 cells 4s + 2x + y to uint8 ``(shat,
    failed)``. A trial runs in chunks of ``step`` symbols, each either whole
    ``sub_block``-symbol perception sub-blocks or a piece of the block's one
    sub-block, and keeps only counts, so the streams and the report are
    those of whole blocks."""
    u, mask, cells = np.empty(step), np.empty(step, dtype=bool), np.empty(step, dtype=np.uint8)
    ones = np.empty((2, cfg.n // sub_block), dtype=np.min_scalar_type(sub_block))
    thresholds = np.cumsum(model.joint.masses.ravel())[:-1]
    role, trial = np.divmod(np.arange(2 * cfg.trials), cfg.trials)
    keys = _key_hash((int(cfg.seed), trial, role)).tolist()  # roles 0, then roles 1
    sample_rng, decode_rng = _rng(0), _rng(0)
    per_trial, failures = [], 0
    for block_seed, decode_seed in zip(keys, keys[cfg.trials:]):
        _rekey(sample_rng, block_seed)
        _rekey(decode_rng, decode_seed)
        mismatches = 0
        ones.fill(0)
        for start in range(0, cfg.n, step):
            m = min(step, cfg.n - start)
            shat, failed = reconstruct(
                _sample_cells(thresholds, sample_rng, u[:m], mask[:m], cells[:m]), decode_rng)
            s = np.right_shift(cells[:m], 2, out=cells[:m])
            mismatches += np.count_nonzero(np.not_equal(s, shat, out=mask[:m]))
            rows = slice(start // sub_block, (start + m - 1) // sub_block + 1)
            for row, block in enumerate((s, shat)):
                ones[row, rows] += np.add.reduce(block.reshape(-1, min(m, sub_block)), axis=1,
                                                 dtype=ones.dtype)
            failures += int(failed)
        per_trial.append(_count_metrics(mismatches, ones, sub_block))
    # every count is an integer below 2^53, so the float rows hold them exactly
    per_d, zeros_s, zeros_shat, blockwise = np.array(per_trial).T
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
        seeds_used=tuple(keys[:cfg.trials]),
        trials=cfg.trials,
        n=cfg.n,
    )


def run_decoder_trials(model: SemanticModel, law: DecoderLaw, cfg: TrialConfig) -> TrialReport:
    """Repeated sample-and-decode trials of a fixed per-symbol decoding rule.
    The blockwise perception reading uses sub-blocks of ``_SUB_BLOCK``
    symbols, or the whole block when that length does not divide it."""
    sub_block = _SUB_BLOCK if cfg.n % _SUB_BLOCK == 0 else cfg.n
    # chunks of whole sub-blocks, or pieces of a block that is one sub-block
    step = min(cfg.n, _CODEBOOK_CHUNK // sub_block * sub_block or _CODEBOOK_CHUNK)
    table = law.prob_zero_table().ravel()
    buffers = [np.empty(step, dtype) for dtype in (np.int64, float, bool)]

    def reconstruct(cells, rng):
        index, *out = (buffer[:cells.size] for buffer in buffers)
        return _decode_cells(table, np.bitwise_and(cells, 3, out=index), rng, *out), False

    return _run_trials(model, cfg, reconstruct, sub_block, step)


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
    p_one = 1.0 - float((model.joint.masses.sum(axis=0) * target_law.prob_zero_table()).sum())

    def reconstruct(cells, rng):
        x, y = (cells >> 1) & 1, cells & 1
        # row chunks draw the same uniforms, in the same order, as one
        # (words, n) draw, without holding eight bytes per codeword symbol;
        # distances to b are |b| + c . (1 - 2b), exact in float64
        codebook = np.empty((words, cfg.n), dtype=np.uint8)
        score, weights = np.empty(words), 1.0 - 2.0 * x
        rows = max(1, _CODEBOOK_CHUNK // cfg.n)
        for start in range(0, words, rows):
            chunk = codebook[start:start + rows]
            np.less(rng.random(chunk.shape), p_one, out=chunk)
            np.matmul(chunk, weights, out=score[start:start + rows])
        encoder_pick = int(score.argmin())
        if bins == words:  # one word per bin, and the shuffle would be the last draw
            return codebook[encoder_pick], False
        bin_of = np.empty(words, dtype=np.int64)
        bin_of[rng.permutation(words)] = np.arange(words) % bins
        members = np.flatnonzero(bin_of == bin_of[encoder_pick])
        decoder_pick = int(members[(codebook[members] @ (1.0 - 2.0 * y)).argmin()])
        return codebook[decoder_pick], decoder_pick != encoder_pick

    return _run_trials(model, cfg, reconstruct, cfg.n, cfg.n)  # codes see whole blocks
