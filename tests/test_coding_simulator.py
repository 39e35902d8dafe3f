import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from semrdp import (
    DecoderLaw,
    DomainError,
    ResourceLimitError,
    TrialConfig,
    TrialReport,
    apply_decoder,
    build_model,
    derive_seed,
    dsbs_model,
    evaluate_decoder,
    random_binning_trial,
    run_decoder_trials,
    sample_block,
)
from semrdp import coding_simulator
from semrdp.coding_simulator import _key_hash, _rekey, _rng


def test_sample_block_deterministic(model_q01):
    a = sample_block(model_q01, 1000, 42)
    b = sample_block(model_q01, 1000, 42)
    for left, right in zip(a, b):
        assert np.array_equal(left, right)
    c = sample_block(model_q01, 1000, 43)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_sample_block_noiseless_observation():
    s, x, _ = sample_block(dsbs_model(0.0, 0.2), 5000, 7)
    assert np.array_equal(s, x)


def test_sample_block_concentration(model_q01):
    n = 100_000
    s, x, y = sample_block(model_q01, n, 20250808)
    se = math.sqrt(0.1 * 0.9 / n)
    assert abs(float(np.mean(s != x)) - 0.1) <= 4 * se
    se = math.sqrt(0.2 * 0.8 / n)
    assert abs(float(np.mean(x != y)) - 0.2) <= 4 * se


def test_apply_decoder_deterministic_and_lengths(model_q01):
    _, x, y = sample_block(model_q01, 2000, 5)
    one = apply_decoder(DecoderLaw.uniform(), x, y, 9)
    two = apply_decoder(DecoderLaw.uniform(), x, y, 9)
    assert np.array_equal(one, two)
    with pytest.raises(DomainError):
        apply_decoder(DecoderLaw.uniform(), x[:10], y, 9)


def test_apply_decoder_deterministic_laws(model_q01):
    _, x, y = sample_block(model_q01, 5000, 6)
    assert np.array_equal(apply_decoder(DecoderLaw.from_side_information(), x, y, 1), y)
    assert np.array_equal(apply_decoder(DecoderLaw.copy_observation(), x, y, 1), x)
    coin = apply_decoder(DecoderLaw.uniform(), x, y, 1)
    assert abs(float(np.mean(coin == 0)) - 0.5) <= 4 * math.sqrt(0.25 / coin.size)


def test_apply_decoder_on_two_dimensional_blocks(model_q01):
    _, x, y = sample_block(model_q01, 600, 8)
    law = DecoderLaw(0.9, 0.3, 0.6, 0.05)
    flat = apply_decoder(law, x, y, 4)
    block = apply_decoder(law, x.reshape(20, 30), y.reshape(20, 30), 4)
    assert block.shape == (20, 30)
    assert np.array_equal(block, flat.reshape(20, 30))


def test_apply_decoder_draws_in_c_order_whatever_the_layout(model_q01):
    _, x, y = sample_block(model_q01, 600, 8)
    law = DecoderLaw(0.9, 0.3, 0.6, 0.05)
    flat = apply_decoder(law, x, y, 4).reshape(20, 30)
    x2, y2 = x.reshape(20, 30), y.reshape(20, 30)
    assert np.array_equal(apply_decoder(law, np.asfortranarray(x2), np.asfortranarray(y2), 4), flat)
    assert np.array_equal(apply_decoder(law, x2[:, ::2], y2[:, ::2], 4),
                          apply_decoder(law, x2[:, ::2].copy(), y2[:, ::2].copy(), 4))
    one, zero = np.uint8(1), np.uint8(0)
    for seed in range(8):  # a 0-d block decodes as one symbol
        assert apply_decoder(law, one, zero, seed) == _reference_apply_decoder(law, one, zero, seed)


def test_side_information_decoder_statistics(model_q01):
    n = 100_000
    s, x, y = sample_block(model_q01, n, 11)
    shat = apply_decoder(DecoderLaw.from_side_information(), x, y, 12)
    assert float(np.mean(s != shat)) == pytest.approx(0.26, abs=0.005)
    assert abs(float(np.mean(s == 0)) - float(np.mean(shat == 0))) <= 0.01


def test_distortion_transform_law_on_samples(model_q01, rng):
    n = 20_000
    q = model_q01.q1
    for idx in range(5):
        law = DecoderLaw(*rng.random(4))
        s, x, y = sample_block(model_q01, n, derive_seed(99, idx, 0))
        shat = apply_decoder(law, x, y, derive_seed(99, idx, 1))
        z = (s != shat).astype(float) - (1 - 2 * q) * (x != shat).astype(float) - q
        se = float(z.std(ddof=1)) / math.sqrt(n)
        assert abs(float(z.mean())) <= 4 * se


def test_run_decoder_trials_report(model_q01, rng):
    cfg = TrialConfig(n=10_000, trials=6, seed=314)
    for _ in range(3):
        law = DecoderLaw(*rng.random(4))
        report = run_decoder_trials(model_q01, law, cfg)
        again = run_decoder_trials(model_q01, law, cfg)
        assert report == again
        exact = evaluate_decoder(model_q01, law)
        assert report.empirical_D_se is not None
        assert abs(report.empirical_D - exact.distortion) <= 6 * report.empirical_D_se
        assert report.bin_decode_failures == 0
        assert len(report.seeds_used) == cfg.trials


def test_blockwise_dominates_marginal(model_q01, rng):
    cfg = TrialConfig(n=10_000, trials=4, seed=2718)
    for _ in range(3):
        law = DecoderLaw(*rng.random(4))
        report = run_decoder_trials(model_q01, law, cfg)
        # expected TV of empirical blocks dominates the pooled-mean TV up to noise
        assert report.empirical_P_blockwise >= report.empirical_P_marginal - 0.02


def test_trial_config_validation():
    with pytest.raises(DomainError):
        TrialConfig(n=0, trials=1, seed=1)
    with pytest.raises(DomainError):
        TrialConfig(n=8, trials=0, seed=1)
    with pytest.raises(DomainError):
        TrialConfig(n=8, trials=1, seed=1, rate_R1=0.2, rate_R2=0.4)


def test_binning_equal_rates_never_fails(model_q01):
    cfg = TrialConfig(n=12, trials=40, seed=1001, rate_R1=0.6, rate_R2=0.6)
    report = random_binning_trial(model_q01, cfg, DecoderLaw.copy_observation())
    assert report.bin_decode_failures == 0
    assert report == random_binning_trial(model_q01, cfg, DecoderLaw.copy_observation())


def test_binning_bin_sharing_can_fail(model_q01):
    cfg = TrialConfig(n=12, trials=40, seed=1002, rate_R1=0.9, rate_R2=0.25)
    report = random_binning_trial(model_q01, cfg, DecoderLaw.copy_observation())
    assert report.bin_decode_failures > 0
    # recorded with whole-codebook distance sums, before scoring moved into
    # the draw loop; shared bins run the shuffle and the member scoring
    assert report == TrialReport(
        empirical_D=0.28958333333333336, empirical_D_se=0.020884019538388008,
        empirical_P_marginal=0.06458333333333333, empirical_P_blockwise=0.13125,
        empirical_P_signed=-0.06458333333333334, empirical_P_signed_se=0.024329963324769218,
        bin_decode_failures=32,
        seeds_used=(6294939704074360075, 8488904211251750515, 2497648665163013937,
                    3029671549399952032, 10436307066233981594, 10902590753811862064,
                    15889944429581941540, 14205702325165489612, 490199211854649827,
                    12164824910222946345, 628568278873318750, 14295905840695093368,
                    14766969284134701597, 15356822689551959656, 5606882713099357779,
                    17565673183190531279, 2079774843033302617, 8457078250240821952,
                    3789880329751796253, 8532095866723300742, 8035208619386622612,
                    15168069276592259759, 1004930863471493922, 12236735004466365647,
                    7520382947699937217, 16192116610640579207, 9692216691052481722,
                    1188806708662542345, 2908508212504157096, 4090997186221274560,
                    10903585120542648619, 8539213694336224732, 16151751716470602014,
                    12123932757823251746, 13904749419773301168, 10234310213521696613,
                    16679211190286924012, 10704289652984716816, 15561571660003225323,
                    11853438081547398126),
        trials=40, n=12)


def test_binning_rate_margin_trend(model_q01):
    means, ses = [], []
    for margin in (0.2, 0.8):
        rate = 0.1784 + margin
        cfg = TrialConfig(n=12, trials=80, seed=555, rate_R1=rate, rate_R2=rate)
        report = random_binning_trial(model_q01, cfg, DecoderLaw.copy_observation())
        means.append(report.empirical_D)
        ses.append(report.empirical_D_se)
    assert means[1] <= means[0] + math.sqrt(ses[0] ** 2 + ses[1] ** 2)


def test_binning_block_length_trend(model_q01):
    # fixed rate margin, growing block length: mean distortion non-increasing
    means, ses = [], []
    rate = 0.1783636516877659 + 0.4
    for n in (8, 12, 16):
        cfg = TrialConfig(n=n, trials=150, seed=4242, rate_R1=rate, rate_R2=rate)
        report = random_binning_trial(model_q01, cfg, DecoderLaw.copy_observation())
        means.append(report.empirical_D)
        ses.append(report.empirical_D_se)
    for i in range(len(means) - 1):
        assert means[i + 1] <= means[i] + math.sqrt(ses[i] ** 2 + ses[i + 1] ** 2)


def test_binning_codebook_cap(model_q01):
    cfg = TrialConfig(n=30, trials=2, seed=1, rate_R1=1.0, rate_R2=1.0)
    with pytest.raises(ResourceLimitError):
        random_binning_trial(model_q01, cfg, DecoderLaw.copy_observation())


def test_binning_codebook_memory_is_bounded(model_q01, monkeypatch):
    # 2^16 words of 16 symbols: drawn in one piece, the float64 uniforms
    # alone would take 8.4 MB
    cfg = TrialConfig(n=16, trials=1, seed=3, rate_R1=1.0, rate_R2=1.0)
    law = DecoderLaw.copy_observation()
    tracemalloc.start()
    try:
        chunked = random_binning_trial(model_q01, cfg, law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    # a single chunk draws the same uniforms in the same order
    monkeypatch.setattr(coding_simulator, "_CODEBOOK_CHUNK", 16 << 16)
    assert random_binning_trial(model_q01, cfg, law) == chunked


def test_derive_seed_distinct_and_stable():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    seen = {derive_seed(7, t, role) for t in range(50) for role in range(2)}
    assert len(seen) == 100
    for parts in ((-1,), (7, -100), (7, 0, -1)):
        with pytest.raises(DomainError, match="non-negative"):
            derive_seed(*parts)


def _seed_sequence_key(key):
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


# one to three entropy words each, so keys of up to six words pass the pool of four
_BASES = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70]


@pytest.mark.parametrize("base", _BASES)
def test_key_hash_matches_seed_sequence(base):
    for parts in ((), (5,), (0, 1), (3, 2**32 + 7, 1), (2**64, 0, 9)):
        key = (base, *parts)
        assert _key_hash(key) == derive_seed(*key) == _seed_sequence_key(key)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("trials", [1, 2, 41])
@pytest.mark.parametrize("base", _BASES)
def test_key_hash_of_a_batch_matches_seed_sequence(base, trials):
    t = np.arange(trials, dtype=np.uint32)
    for key in ((base, t), (base, t, 1), (base, np.concatenate((t, t)),
                                          np.repeat(np.arange(2, dtype=np.uint32), trials)),
                (base, 7, t, 0)):
        keys = _key_hash(key)
        assert keys.dtype == np.uint64
        want = [_seed_sequence_key(tuple(int(p[i]) if isinstance(p, np.ndarray) else p
                                         for p in key)) for i in range(keys.size)]
        assert keys.tolist() == want


@pytest.mark.parametrize("seed", [0, 12345, 2**63 - 1, 2**63, 2**64 - 1])
def test_rekey_draws_the_stream_of_a_new_generator(seed):
    rng = _rng(99)
    for used in (0, 3):
        rng.random(used)  # partway through the buffer
        rng.integers(5, dtype=np.uint32)  # a cached half word
        _rekey(rng, seed)
        fresh = _rng(seed)
        assert np.array_equal(rng.random(5), fresh.random(5))
        assert np.array_equal(rng.permutation(37), fresh.permutation(37))
        got, want = np.empty((3, 4)), np.empty((3, 4))
        rng.random(out=got)
        fresh.random(out=want)
        assert np.array_equal(got, want)
        _rekey(rng, seed)
        assert np.array_equal(rng.random(50), _rng(seed).random(50))


def test_negative_seeds_are_rejected(model_q01):
    law = DecoderLaw.copy_observation()
    with pytest.raises(DomainError, match="non-negative"):
        run_decoder_trials(model_q01, law, TrialConfig(n=10, trials=2, seed=-1))
    with pytest.raises(DomainError, match="non-negative"):
        random_binning_trial(model_q01, TrialConfig(n=8, trials=2, seed=-1, rate_R1=0.5,
                                                    rate_R2=0.5), law)


def _reference_sample_block(model, n, seed):
    """The searchsorted sampler that fixed the --seed streams."""
    flat = model.joint.masses.ravel()
    cum = np.cumsum(flat)
    u = _rng(seed).random(n)
    idx = np.minimum(np.searchsorted(cum, u, side="right"), flat.size - 1)
    return ((idx >> 2).astype(np.uint8), ((idx >> 1) & 1).astype(np.uint8),
            (idx & 1).astype(np.uint8))


def _reference_apply_decoder(law, x_block, y_block, seed):
    """The 2-D table-index decoder that fixed the --seed streams."""
    p_zero = law.prob_zero_table()[x_block, y_block]
    u = _rng(seed).random(x_block.size)
    return (u >= p_zero).astype(np.uint8)


# cum[-1] of the (0.379, ...) joint rounds to 1 - 2^-53; the others have
# zero-mass cells, so cum repeats entries
_STREAM_MODELS = [
    dsbs_model(0.0, 0.2),
    build_model(0.3, 0.0, 0.15, 0.2, 0.3),
    build_model(0.0, 0.1, 0.15, 0.2, 0.3),
    dsbs_model(0.1, 0.2),
    build_model(0.379, 0.249, 0.265, 0.393, 0.207),
]


@pytest.mark.parametrize("n", [1, 12, 100_000])
@pytest.mark.parametrize("model_index", range(len(_STREAM_MODELS)))
def test_kernels_match_reference_streams(model_index, n, rng):
    model = _STREAM_MODELS[model_index]
    for k in range(4):
        seed = derive_seed(model_index, n, k)
        block = sample_block(model, n, seed)
        for got, want in zip(block, _reference_sample_block(model, n, seed)):
            assert got.dtype == np.uint8
            assert np.array_equal(got, want)
        law = DecoderLaw(*rng.random(4))
        _, x, y = block
        shat = apply_decoder(law, x, y, seed + 1)
        assert shat.dtype == np.uint8
        assert np.array_equal(shat, _reference_apply_decoder(law, x, y, seed + 1))


def test_sample_block_clips_to_the_last_cell():
    model = _STREAM_MODELS[-1]
    assert np.cumsum(model.joint.masses.ravel())[-1] < 1.0
    # masses summing to 0.9 put a tenth of the draws past cum[-1]
    short = SimpleNamespace(joint=SimpleNamespace(masses=np.full((2, 2, 2), 0.9 / 8)))
    s, x, y = sample_block(short, 10_000, 3)
    for got, want in zip((s, x, y), _reference_sample_block(short, 10_000, 3)):
        assert np.array_equal(got, want)
    assert np.count_nonzero(s & x & y) > 1000


_SUB_BLOCK = coding_simulator._SUB_BLOCK
# the trial loop's chunk: as many whole sub-blocks as fit
_CHUNK = coding_simulator._CODEBOOK_CHUNK // _SUB_BLOCK * _SUB_BLOCK
# the clipping model of test_sample_block_clips_to_the_last_cell
_SHORT_MODEL = SimpleNamespace(joint=SimpleNamespace(masses=np.full((2, 2, 2), 0.9 / 8)))


def _reference_decoder_trials(model, law, cfg):
    """The whole-block trial loop that fixed the decoder-trial reports: one
    pass per trial through the reference kernels and the per-block metrics."""
    sub_block = _SUB_BLOCK if cfg.n % _SUB_BLOCK == 0 else cfg.n
    per_d, zeros, blockwise, seeds = [], [], [], []
    for t in range(cfg.trials):
        block_seed = derive_seed(cfg.seed, t, 0)
        s, x, y = _reference_sample_block(model, cfg.n, block_seed)
        shat = _reference_apply_decoder(law, x, y, derive_seed(cfg.seed, t, 1))
        fs = (s.reshape(-1, sub_block) == 0).mean(axis=1)
        fh = (shat.reshape(-1, sub_block) == 0).mean(axis=1)
        per_d.append(float(np.count_nonzero(s != shat) / cfg.n))
        zeros.append((cfg.n - np.count_nonzero(s), cfg.n - np.count_nonzero(shat)))
        blockwise.append(float(np.abs(fs - fh).mean()))
        seeds.append(block_seed)
    zeros_s, zeros_shat = np.array(zeros).T
    per_d, signed = np.array(per_d), zeros_shat / cfg.n - zeros_s / cfg.n
    symbols = cfg.trials * cfg.n

    def se(values):
        return float(values.std(ddof=1) / math.sqrt(values.size)) if values.size >= 2 else None

    return TrialReport(
        empirical_D=float(per_d.mean()), empirical_D_se=se(per_d),
        empirical_P_marginal=float(abs(zeros_s.sum() / symbols - zeros_shat.sum() / symbols)),
        empirical_P_blockwise=float(np.mean(blockwise)),
        empirical_P_signed=float(signed.mean()), empirical_P_signed_se=se(signed),
        bin_decode_failures=0, seeds_used=tuple(seeds), trials=cfg.trials, n=cfg.n)


# 200_003 is no multiple of 100, so the whole block is its one sub-block,
# counted across chunks of _CODEBOOK_CHUNK symbols
@pytest.mark.parametrize("n", [1, 99, 100, _CHUNK - 100, _CHUNK, _CHUNK + 100,
                               3 * _CHUNK + 200, 200_003])
@pytest.mark.parametrize("model_index", range(len(_STREAM_MODELS) + 1))
def test_chunked_trials_match_whole_block_reference(model_index, n):
    model = (_STREAM_MODELS + [_SHORT_MODEL])[model_index]
    law = DecoderLaw(*np.random.default_rng([model_index, n]).random(4))
    cfg = TrialConfig(n=n, trials=2, seed=derive_seed(17, model_index, n))
    assert run_decoder_trials(model, law, cfg) == _reference_decoder_trials(model, law, cfg)


@pytest.mark.parametrize("n", [10**6, 10**6 + 1])
def test_decoder_trial_memory_is_bounded(model_q01, n):
    # whole-block passes peaked at 21 MB of temporaries for one 10^6-symbol
    # trial; 10^6 + 1 symbols are one perception sub-block
    cfg = TrialConfig(n=n, trials=2, seed=3)
    tracemalloc.start()
    try:
        run_decoder_trials(model_q01, DecoderLaw(0.8, 0.3, 0.6, 0.1), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_apply_decoder_rejects_non_binary_symbols():
    ones = np.ones(4, dtype=np.uint8)
    bad = np.array([0, 1, 2, 1], dtype=np.uint8)
    for x, y in ((bad, ones), (ones, bad), (np.full(4, -1), ones)):
        with pytest.raises(DomainError):
            apply_decoder(DecoderLaw.uniform(), x, y, 1)
    empty = np.zeros(0, dtype=np.uint8)
    assert apply_decoder(DecoderLaw.uniform(), empty, empty, 1).size == 0


def test_reports_pinned_to_recorded_streams(model_q01):
    # values recorded with the searchsorted sampler and the 2-D decoder
    report = run_decoder_trials(model_q01, DecoderLaw(0.8, 0.3, 0.6, 0.1),
                                TrialConfig(n=10_000, trials=4, seed=314))
    assert report == TrialReport(
        empirical_D=0.251025, empirical_D_se=0.001159292169098601,
        empirical_P_marginal=0.05097500000000005,
        empirical_P_blockwise=0.057925000000000004,
        empirical_P_signed=-0.05097499999999998,
        empirical_P_signed_se=0.0007192299122441008, bin_decode_failures=0,
        seeds_used=(1431021540424915137, 15710430719167315825, 15690007067645661037,
                    17790781923038590727),
        trials=4, n=10_000)
    binning = random_binning_trial(
        model_q01, TrialConfig(n=12, trials=20, seed=1001, rate_R1=0.6, rate_R2=0.6),
        DecoderLaw.copy_observation())
    assert binning.empirical_D == 0.2041666666666666
    assert binning.empirical_D_se == 0.02300123947842506
    assert binning.empirical_P_marginal == 0.004166666666666763
    assert binning.empirical_P_blockwise == 0.0625
    assert binning.empirical_P_signed == 0.004166666666666663
    assert binning.empirical_P_signed_se == 0.019566762305872242
    assert binning.bin_decode_failures == 0
    assert binning.seeds_used[:3] == (1359894154268611347, 3734321803408795338,
                                      9256614545176165294)
    assert (binning.trials, binning.n) == (20, 12)


def test_binning_codebook_pinned_off_a_uniform_reconstruction():
    # P(Shat = 1) = 0.446 here, so swapping P(Shat = 0) and P(Shat = 1) in
    # the codebook law moves the report; a DSBS copy-observation law, where
    # both are 1/2, cannot tell them apart
    model = build_model(0.4, 0.1, 0.15, 0.2, 0.3)
    law = DecoderLaw(0.9, 0.3, 0.6, 0.05)
    report = random_binning_trial(
        model, TrialConfig(n=12, trials=20, seed=1001, rate_R1=0.6, rate_R2=0.6), law)
    assert report == TrialReport(
        empirical_D=0.19999999999999998, empirical_D_se=0.020412414523193156,
        empirical_P_marginal=0.025000000000000022,
        empirical_P_blockwise=0.10833333333333331,
        empirical_P_signed=0.025, empirical_P_signed_se=0.030886038406067098,
        bin_decode_failures=0,
        seeds_used=(1359894154268611347, 3734321803408795338, 9256614545176165294,
                    17976487602342169978, 16180736267355779647, 18252277309332939917,
                    2078902461401750613, 18315114365539832738, 3545874175164282848,
                    14195174856587249710, 1816874336754598079, 14474432133872116669,
                    14607572445673226110, 8280675105316688193, 4982250552708267083,
                    8324944625967384957, 3398460513211408688, 6700415723889042888,
                    11447186887082724473, 8120003851557131076),
        trials=20, n=12)


def test_multi_chunk_report_pinned_to_recorded_streams(model_q01):
    # recorded with whole-block passes; 200,000 symbols cross three chunk boundaries
    report = run_decoder_trials(model_q01, DecoderLaw(0.8, 0.3, 0.6, 0.1),
                                TrialConfig(n=200_000, trials=3, seed=314))
    assert report == TrialReport(
        empirical_D=0.2531366666666666, empirical_D_se=0.00029919800207294753,
        empirical_P_marginal=0.049240000000000006,
        empirical_P_blockwise=0.05759333333333335,
        empirical_P_signed=-0.049239999999999985,
        empirical_P_signed_se=0.0005473648996175523, bin_decode_failures=0,
        seeds_used=(1431021540424915137, 15710430719167315825, 15690007067645661037),
        trials=3, n=200_000)
