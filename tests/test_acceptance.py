"""End-to-end acceptance suite.

Each test prints one PASS line with the observed numbers so a log scan
shows which guarantees were exercised. The bias tests are property
based: at desk scale the absolute magnitudes of published full-scale
results are not reproducible, the direction and ordering are.
"""

import itertools
import json
import pathlib
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitsim import datagen, harness, nn, protocols
from splitsim.harness import DivergenceError, ExperimentConfig, run_experiment
from splitsim.metrics import (ConfusionCounts, MetricError, auprc, cohen_kappa, f1,
                              percent_drop)
from splitsim.transport import (HEADER_LEN, ChannelBus, CorruptStream, MsgType,
                                Truncated, decode, encode)

from test_metrics import (ORDER_TABLE, SETTING_TABLE, brute_force_auprc,
                          naive_f1, naive_kappa)
from test_nn import max_grad_check_error, models_equal
from test_protocols import centralized_training, make_setup, run_rounds
import test_protocols as tp
from test_transport import round_trips
from splitsim.protocols import FL, SFV1, SFV2, SFV3, SL, composed_model, make_clients, run_round
from splitsim.model_split import U_SHAPED, VANILLA

SEEDS = range(10)
BIAS_CFG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "bias.cfg"


@pytest.fixture(scope="module")
def client_count_tables():
    """The bias fixture's client-count sweep (probe client 0 scheduled
    first vs last on its first n clients, n = 2..5), one table per seed."""
    bias = harness.config_from(harness.parse_config_file(BIAS_CFG), {})
    return dict(zip(SEEDS, harness.sweep(bias, SEEDS, "n_clients", bias.sweep_sizes)))


def _probe_drops(tables, seed, n_clients):
    """Percent drop per metric of the seed's n_clients setting."""
    (row,) = [row for row in tables[seed].rows if row.key == f"{n_clients} client setting"]
    return {m: percent_drop(getattr(row.first, m), getattr(row.last, m))
            for m in ("auprc", "f1", "kappa")}


def test_percent_drop_table_fidelity():
    """All 27 published percent-drop cells recompute from their
    First/Last values within 0.02 absolute."""
    checked = 0
    for row in ORDER_TABLE + SETTING_TABLE:
        _, a_f, a_l, a_d, f_f, f_l, f_d, k_f, k_l, k_d = row
        for first, last, published in ((a_f, a_l, a_d), (f_f, f_l, f_d),
                                       (k_f, k_l, k_d)):
            assert percent_drop(first, last) == pytest.approx(published, abs=0.02)
            checked += 1
    assert checked == 27
    print("percent-drop table fidelity: PASS (27/27 cells within 0.02)")


def test_parallel_protocols_order_invariant():
    """FL and SFv3, 3 clients, 5 epochs: every permutation of the round
    order yields bit-identical metric reports."""
    for protocol in (FL, SFV3):
        reports = set()
        for perm in itertools.permutations(range(3)):
            datasets = datagen.generate_clients(datagen.desk_manifest(3),
                                                shift_scale=0.6, seed=0)
            cfg = ExperimentConfig(protocol=protocol, epochs=5, n_clients=3,
                                   shift_scale=0.6, seed=0, order=perm)
            res = run_experiment(cfg, datasets)
            reports.add(json.dumps(
                {str(c): (r.auprc, r.f1, r.kappa, r.threshold)
                 for c, r in sorted(res.per_client.items())}))
        assert len(reports) == 1, f"{protocol} depends on client order"
    print("parallel order invariance: PASS (fl, sfv3: 6 permutations each, "
          "bit-identical reports)")


def test_sequential_order_biases_probe_client(client_count_tables):
    """SL, 5 non-IID clients, 10 seeds: training the probe first instead
    of last costs it AUPRC in at least 8 seeds, and the median drop is
    positive for all three metrics."""
    drops = [_probe_drops(client_count_tables, seed, 5) for seed in SEEDS]
    positive_auprc = sum(d["auprc"] > 0 for d in drops)
    medians = {m: statistics.median(d[m] for d in drops)
               for m in ("auprc", "f1", "kappa")}
    assert positive_auprc >= 8, f"only {positive_auprc}/10 seeds positive"
    for m, v in medians.items():
        assert v > 0, f"median {m} drop not positive: {v}"
    print(f"sequential order bias: PASS (auprc drop positive in "
          f"{positive_auprc}/10 seeds; median drops "
          f"auprc {medians['auprc']:.1f}% f1 {medians['f1']:.1f}% "
          f"kappa {medians['kappa']:.1f}%)")


def test_bias_grows_with_client_count(client_count_tables):
    """Median SL kappa drop over 10 seeds is non-decreasing in the
    number of clients (one inversion allowed) with positive Spearman
    rank correlation."""
    sizes = (2, 3, 4, 5)
    medians = []
    for n in sizes:
        per_seed = [_probe_drops(client_count_tables, seed, n)["kappa"] for seed in SEEDS]
        medians.append(statistics.median(per_seed))
    inversions = sum(a > b for a, b in zip(medians, medians[1:]))
    assert inversions <= 1, f"medians not monotone: {medians}"
    ranks = np.argsort(np.argsort(medians)).astype(float)
    rho = float(np.corrcoef(ranks, np.arange(len(sizes)))[0, 1])
    assert rho > 0, f"Spearman correlation not positive: {rho}"
    series = ", ".join(f"n={n}: {m:.1f}%" for n, m in zip(sizes, medians))
    print(f"client-count trend: PASS ({series}; {inversions} inversion(s), "
          f"Spearman {rho:.2f})")


def test_single_client_equals_centralized():
    """Every protocol degenerates to plain centralized training with one
    participant: composed models bit-identical over 3 epochs."""
    cases = [(SL, U_SHAPED), (SL, VANILLA), (SFV1, U_SHAPED),
             (SFV2, U_SHAPED), (SFV3, U_SHAPED), (FL, U_SHAPED)]
    for protocol, kind in cases:
        datasets, model, clients, server = make_setup(1, protocol, kind, seed=11)
        run_rounds(protocol, clients, server, (0,), 3)
        final = composed_model(clients[0], server.body)
        ref = centralized_training(datasets[0], seed=11, epochs=3)
        assert models_equal(final, ref), f"{protocol}/{kind} diverged"
    print("single-client equivalence: PASS (6 protocol variants bit-identical "
          "to centralized training, 3 epochs)")


SPLIT_RUNS = [(FL, None)] + [(p, k) for p in (SL, SFV1, SFV2, SFV3) for k in (VANILLA, U_SHAPED)]


@st.composite
def training_shapes(draw):
    """2-5 layers of width 1-12 (an input width of 2-12), cuts valid under
    each split (vanilla's front may take every layer, leaving the body
    empty), batch size 1-40, epochs 1-3, lr and seed."""
    n_layers = draw(st.integers(2, 5))
    widths = (draw(st.integers(2, 12)),
              *draw(st.lists(st.integers(1, 12), min_size=n_layers - 1, max_size=n_layers - 1)),
              1)
    front_cut = draw(st.integers(1, n_layers - 1))
    cuts = {U_SHAPED: (front_cut, draw(st.integers(front_cut, n_layers - 1))),
            VANILLA: (draw(st.integers(1, n_layers)), n_layers)}
    return dict(widths=widths, cuts=cuts, batch_size=draw(st.integers(1, 40)),
                epochs=draw(st.integers(1, 3)), lr=draw(st.floats(1e-4, 1.0)),
                seed=draw(st.integers(0, 2**16)))


def _train(shape, protocol, kind, datasets, order):
    """`shape`'s rounds of `protocol` under the `kind` split, clients
    training in `order`; returns each client's composed parameters and
    the bus log."""
    model = nn.init_model(list(shape["widths"]), shape["seed"])
    cuts = None if protocol == FL else shape["cuts"][kind]
    clients, server = make_clients(datasets, model, protocol, cuts, shape["lr"])
    bus = ChannelBus()
    for rnd in range(shape["epochs"]):
        run_round(clients, server, protocol, order, rnd, bus, shape["batch_size"])
    return ({cid: composed_model(clients[cid], server.body).flat.tobytes()
             for cid in clients}, bus.log)


def test_single_client_equals_centralized_over_drawn_configs():
    """With one client, every protocol under every split trains the
    composed model bit for bit as plain centralized training does, at
    drawn widths, cuts, batch size, epochs and lr."""
    runs = []

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(shape=training_shapes())
    def check(shape):
        datasets = datagen.generate_clients(datagen.desk_manifest(1), d=shape["widths"][0],
                                            seed=shape["seed"])
        ref = centralized_training(datasets[0], shape["seed"], shape["epochs"], lr=shape["lr"],
                                   batch=shape["batch_size"], widths=shape["widths"])
        for protocol, kind in SPLIT_RUNS:
            params, _ = _train(shape, protocol, kind, datasets, (0,))
            assert params[0] == ref.flat.tobytes(), (protocol, kind)
            runs.append((protocol, kind))

    check()
    assert set(runs) == set(SPLIT_RUNS)
    print(f"single-client equivalence over drawn configs: PASS ({len(runs)} runs, "
          f"{len(SPLIT_RUNS)} protocol variants, bit-identical to centralized training)")


def test_parallel_protocols_order_invariant_over_drawn_configs():
    """FL, SFv1 and SFv3 train their clients in ascending id whatever
    the order: every drawn order gives the ascending order's parameters
    and bus log bit for bit, at drawn shapes, split, 2-4 clients and
    their training counts."""
    compared = []

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(shape=training_shapes(), kind=st.sampled_from([VANILLA, U_SHAPED]),
           counts=st.lists(st.integers(2, 40), min_size=2, max_size=4), data=st.data())
    def check(shape, kind, counts, data):
        manifest = datagen.PartitionManifest(tuple(counts), (10,) * len(counts),
                                             (10,) * len(counts))
        datasets = datagen.generate_clients(manifest, d=shape["widths"][0], seed=shape["seed"])
        ids = tuple(range(len(counts)))
        orders = data.draw(st.lists(st.permutations(ids), min_size=1, max_size=3))
        for protocol in (FL, SFV1, SFV3):
            params, log = _train(shape, protocol, kind, datasets, ids)
            for order in orders:
                assert _train(shape, protocol, kind, datasets, tuple(order)) == (params, log), (
                    protocol, order)
                compared.append(protocol)

    check()
    print(f"parallel order invariance over drawn configs: PASS ({len(compared)} drawn orders "
          "equal to the ascending order in parameters and bus log)")


def _replica_reference(shape, protocol, kind, datasets):
    """The per-client-copy path a replica round follows: make_clients'
    clients and per-client body Adam states, an explicit copy of the
    starting body per client, each trained in ascending id, every copy
    overwritten with their `average_models` at round end, then the
    segments averaged if the row says so. Yields each client's composed
    parameters and the bus log after every round."""
    model = nn.init_model(list(shape["widths"]), shape["seed"])
    clients, server = make_clients(datasets, model, protocol, shape["cuts"][kind], shape["lr"])
    ids = sorted(clients)
    bodies = {cid: nn.SequentialModel(server.body.layers, nn.aligned_copy(server.body.flat),
                                      server.body.grad) for cid in ids}
    bus = ChannelBus()
    for rnd in range(shape["epochs"]):
        for cid in ids:
            ds = clients[cid].dataset
            for xb, yb in protocols.iter_batches(ds.train_x, ds.train_y, shape["batch_size"]):
                protocols._train_batch_split(clients[cid], bodies[cid], server.opts[cid],
                                             xb, yb, bus, rnd)
        mean = protocols.average_models([(cid, bodies[cid].flat) for cid in ids],
                                        {cid: float(clients[cid].sample_count) for cid in ids})
        for body in bodies.values():
            body.flat[...] = mean
        if protocols.SPECS[protocol].average_segments:
            protocols._average_client_segments(clients, bus, rnd)
        yield ({cid: composed_model(clients[cid], bodies[cid]).flat.tobytes() for cid in ids},
               list(bus.log))


def test_replica_rounds_equal_per_client_copies_over_drawn_configs():
    """Under SFv1 and SFv3, at drawn shapes, either split, 1-4 clients of
    drawn training counts or one dataset dealt to every client: after
    every round, each client's composed parameters and the bus log equal
    the per-client-copy path's (`_replica_reference`) bit for bit."""
    rounds, cohorts = [], set()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(shape=training_shapes(), kind=st.sampled_from([VANILLA, U_SHAPED]),
           counts=st.lists(st.integers(2, 40), min_size=1, max_size=4), identical=st.booleans())
    @example(shape=dict(widths=(4, 6, 5, 3, 1), cuts={U_SHAPED: (1, 3), VANILLA: (1, 4)},
                        batch_size=8, epochs=2, lr=3e-3, seed=1),
             kind=U_SHAPED, counts=[30, 30, 30, 30], identical=True)
    def check(shape, kind, counts, identical):
        manifest = datagen.PartitionManifest(tuple(counts), (10,) * len(counts),
                                             (10,) * len(counts))
        datasets = datagen.generate_clients(manifest, d=shape["widths"][0], seed=shape["seed"])
        if identical:
            datasets = [replace(datasets[0], client_id=cid) for cid in range(len(datasets))]
        cohorts.add((len(datasets), identical))
        for protocol in (SFV1, SFV3):
            model = nn.init_model(list(shape["widths"]), shape["seed"])
            clients, server = make_clients(datasets, model, protocol, shape["cuts"][kind],
                                           shape["lr"])
            bus = ChannelBus()
            reference = _replica_reference(shape, protocol, kind, datasets)
            for rnd, (params, log) in enumerate(reference):
                run_round(clients, server, protocol, tuple(sorted(clients)), rnd, bus,
                          shape["batch_size"])
                assert {cid: composed_model(clients[cid], server.body).flat.tobytes()
                        for cid in clients} == params, (protocol, rnd)
                assert bus.log == log, (protocol, rnd)
                rounds.append(protocol)

    check()
    assert {(n, True) for n in range(2, 5)} <= cohorts
    print(f"replica rounds over drawn configs: PASS ({len(rounds)} rounds equal to "
          f"per-client body copies averaged at round end, {len(cohorts)} cohort kinds)")


def test_gradients_match_finite_differences():
    worst = max(max_grad_check_error(seed) for seed in range(100))
    assert worst < 1e-5
    print(f"gradient correctness: PASS (100 random models, worst relative "
          f"error {worst:.2e} < 1e-5)")


def test_metric_oracles():
    rng = np.random.default_rng(2024)
    swept = 0
    while swept < 500:
        n = int(rng.integers(2, 21))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        scores = np.round(rng.uniform(size=n), 2)
        assert auprc(scores, labels) == pytest.approx(
            brute_force_auprc(scores, labels), abs=1e-12)
        swept += 1
    matched = 0
    while matched < 1000:
        tp_, fp, fn, tn = (int(v) for v in rng.integers(0, 60, size=4))
        if tp_ + fp + fn + tn == 0:
            continue
        c = ConfusionCounts(tp_, fp, fn, tn)
        assert f1(c) == pytest.approx(naive_f1(c), abs=1e-12)
        pe = ((tp_ + fp) * (tp_ + fn) + (fn + tn) * (fp + tn)) / c.total ** 2
        if pe != 1.0:
            assert cohen_kappa(c) == pytest.approx(naive_kappa(c), abs=1e-12)
        matched += 1
    print("metric oracles: PASS (500 brute-force sweeps, 1000 confusion "
          "matrices at 1e-12)")


def test_codec_soundness():
    rng = np.random.default_rng(7)
    per_variant = 1000
    for msg_type in MsgType:
        for _ in range(per_variant):
            shape = tuple(int(v) for v in rng.integers(1, 6, size=rng.integers(1, 4)))
            assert round_trips(msg_type, int(rng.integers(0, 2 ** 16)),
                               int(rng.integers(0, 2 ** 16)), int(rng.integers(0, 2 ** 32)),
                               int(rng.integers(0, 2 ** 32)), rng.normal(size=shape))
    good = encode(MsgType.SMASHED_GRAD, 1, 0, 0, 0, rng.normal(size=(2, 3)))
    with pytest.raises(CorruptStream):
        decode(b"XXXX" + good[4:])
    with pytest.raises(Truncated):
        decode(good[:-8])
    print(f"codec soundness: PASS ({per_variant} round trips per variant; "
          "corrupt magic and truncation raise their designated errors)")


def test_label_privacy():
    """A full U-shaped run ships zero label messages; the identical
    vanilla run ships exactly one per training batch."""
    cfg = ExperimentConfig(protocol=SL, epochs=3, n_clients=3, lr=1e-3, seed=0)
    datasets = datagen.generate_clients(datagen.desk_manifest(3), seed=0)
    n_batches = sum(-(-ds.sample_count // cfg.batch_size)
                    for ds in datasets) * cfg.epochs
    u = run_experiment(cfg, datasets, keep_bus=True)
    v = run_experiment(replace(cfg, split_kind=VANILLA), datasets, keep_bus=True)
    assert u.bus.count_by_type(MsgType.LABELS) == 0
    assert v.bus.count_by_type(MsgType.LABELS) == n_batches
    print(f"label privacy: PASS (u-shaped: 0 label messages; vanilla: "
          f"{n_batches} = one per training batch)")


def test_label_privacy_over_drawn_configs():
    """Under SL and SFv1-3, at drawn shapes, 1-4 clients of drawn training
    counts and a drawn order: a U-shaped run's bus log holds no LABELS
    record, and a vanilla run's holds one per training batch,
    epochs x sum of ceil(train_count / batch_size)."""
    runs = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shape=training_shapes(), counts=st.lists(st.integers(2, 40), min_size=1, max_size=4),
           data=st.data())
    def check(shape, counts, data):
        manifest = datagen.PartitionManifest(tuple(counts), (10,) * len(counts),
                                             (10,) * len(counts))
        datasets = datagen.generate_clients(manifest, d=shape["widths"][0], seed=shape["seed"])
        order = tuple(data.draw(st.permutations(range(len(counts)))))
        batches = shape["epochs"] * sum(-(-count // shape["batch_size"]) for count in counts)
        for protocol in (SL, SFV1, SFV2, SFV3):
            for kind, labels in ((U_SHAPED, 0), (VANILLA, batches)):
                _, log = _train(shape, protocol, kind, datasets, order)
                assert sum(rec.msg_type == MsgType.LABELS for rec in log) == labels, (
                    protocol, kind)
                runs.append(labels)

    check()
    print(f"label privacy over drawn configs: PASS ({len(runs)} runs; u-shaped: 0 label "
          f"records; vanilla: one per training batch, {sum(runs)} in all)")


def test_channel_sequences_over_drawn_configs():
    """Under all five protocols, each split protocol under both splits
    (FL has none), at drawn shapes, 1-4 clients of drawn training counts
    and a drawn order: every channel's (type, round, seq, bytes) sequence
    in the bus log is the closed form built from batch counts and
    segment sizes (`test_protocols.expected_channels`)."""
    runs = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shape=training_shapes(), counts=st.lists(st.integers(2, 40), min_size=1, max_size=4),
           data=st.data())
    def check(shape, counts, data):
        manifest = datagen.PartitionManifest(tuple(counts), (10,) * len(counts),
                                             (10,) * len(counts))
        datasets = datagen.generate_clients(manifest, d=shape["widths"][0], seed=shape["seed"])
        order = tuple(data.draw(st.permutations(range(len(counts)))))
        for protocol, kind in SPLIT_RUNS:
            _, log = _train(shape, protocol, kind, datasets, order)
            expected = tp.expected_channels(
                protocol, kind, dict(enumerate(counts)), shape["widths"],
                None if protocol == FL else shape["cuts"][kind], shape["batch_size"],
                shape["epochs"])
            assert tp.observed_channels(log) == expected, (protocol, kind)
            runs.append((protocol, kind, len(log)))

    check()
    assert {run[:2] for run in runs} == set(SPLIT_RUNS)
    print(f"channel sequences over drawn configs: PASS ({len(runs)} runs, "
          f"{sum(run[2] for run in runs)} records, each channel's sequence equal to its "
          "closed form)")


def test_fl_equals_sfv1():
    """FL and SFv1 give the same result bit for bit: Adam and the averages
    are elementwise, and SFv1's segments run the composed model's layers
    in the same order. Under both splits, at the default config and the
    bias fixture, seeds 0-2; only the wire traffic differs."""
    bias = harness.config_from(harness.parse_config_file(BIAS_CFG), {})
    pairs = 0
    for base in (ExperimentConfig(), bias):
        for seed in range(3):
            datasets = harness.load_or_generate(replace(base, seed=seed))
            fl = run_experiment(replace(base, protocol=FL, seed=seed), datasets)
            for split_kind in (VANILLA, U_SHAPED):
                sfv1 = run_experiment(replace(base, protocol=SFV1, split_kind=split_kind,
                                              seed=seed), datasets)
                for key in ("per_client", "val_losses", "checkpoint_epoch"):
                    # JSON writes each float's repr: exact, and -0.0 is not 0.0
                    assert (json.dumps(fl.to_dict()[key])
                            == json.dumps(sfv1.to_dict()[key])), (seed, split_kind, key)
                assert fl.total_bytes != sfv1.total_bytes
                pairs += 1
    print(f"fl = sfv1: PASS ({pairs}/{pairs} pairs with equal metrics, validation "
          "losses and checkpoint epoch; wire bytes differ)")


@st.composite
def fl_configs(draw):
    """An FL config whose SFv1 twin is valid: the split, 2-5 layers of
    width 1-4 (an input width of 2-4), cuts valid for the split, the batch
    size, epochs, lr, client count and seed."""
    n_layers = draw(st.integers(2, 5))
    widths = (draw(st.integers(2, 4)),
              *draw(st.lists(st.integers(1, 4), min_size=n_layers - 1, max_size=n_layers - 1)),
              1)
    split_kind = draw(st.sampled_from([VANILLA, U_SHAPED]))
    u_shaped = split_kind == U_SHAPED
    front_cut = draw(st.integers(1, n_layers - u_shaped))
    return ExperimentConfig(
        protocol=FL, split_kind=split_kind, widths=widths, front_cut=front_cut,
        tail_cut=draw(st.integers(front_cut, n_layers - 1)) if u_shaped else n_layers,
        batch_size=draw(st.integers(1, 64)), epochs=draw(st.integers(1, 3)),
        lr=draw(st.floats(1e-4, 1.0)), n_clients=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**16)))


def test_fl_equals_sfv1_over_drawn_configs():
    """The FL = SFv1 identity beyond the fixed configs: for every drawn
    config both raise the same error, or their metrics, validation losses
    and checkpoint epoch are equal and FL's wire bytes are the closed form
    of its traffic: each round, every client's whole model (P float64
    parameters, one rank-1 frame) goes up and its average comes back."""
    outcomes = {"equal": 0, "raised": 0}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=fl_configs())
    @example(cfg=ExperimentConfig(protocol=FL, epochs=2, lr=10.0))  # saturates under both
    def check(cfg):
        datasets = harness.load_or_generate(cfg)

        def outcome(protocol):  # the result, or the type of the error raised
            try:
                return run_experiment(replace(cfg, protocol=protocol), datasets)
            except (DivergenceError, MetricError) as exc:
                return type(exc)

        fl, sfv1 = outcome(FL), outcome(SFV1)
        if isinstance(fl, type) or isinstance(sfv1, type):
            assert fl == sfv1
            outcomes["raised"] += 1
            return
        for key in ("per_client", "val_losses", "checkpoint_epoch"):
            assert json.dumps(fl.to_dict()[key]) == json.dumps(sfv1.to_dict()[key]), key
        n_params = nn.init_model(list(cfg.widths), cfg.seed).flat.size
        assert fl.total_bytes == cfg.epochs * cfg.n_clients * 2 * (HEADER_LEN + 4 + 8 * n_params)
        outcomes["equal"] += 1

    check()
    print(f"fl = sfv1 over drawn configs: PASS ({outcomes['equal']} equal with closed-form "
          f"FL bytes, {outcomes['raised']} raised the same error)")


def test_sfv1_costs_more_param_bytes_than_sfv3():
    results = {}
    datasets = datagen.generate_clients(datagen.desk_manifest(3), seed=0)
    for protocol in (SFV1, SFV3):
        cfg = ExperimentConfig(protocol=protocol, epochs=3, n_clients=3,
                               lr=1e-3, seed=0)
        results[protocol] = run_experiment(cfg, datasets).param_blob_bytes
    assert results[SFV1] > results[SFV3]
    print(f"communication accounting: PASS (parameter-blob bytes "
          f"sfv1 {results[SFV1]} > sfv3 {results[SFV3]})")
