"""Serialization round-trip tests for every file format."""

import numpy as np
import pytest

from trajcomm.dist import Dist
from trajcomm.envs import (
    build_channel_chain,
    build_codegrid,
    build_coding_mcg,
    build_toy_mcg,
    chain_mcg,
    image_space,
    image_to_message,
    message_to_image,
)
from trajcomm.formats import (
    MCG_FORMAT_VERSION,
    load_dist,
    load_mcg,
    load_pbm,
    load_qtable,
    load_trajectory,
    mcg_from_document,
    mcg_to_document,
    metrics_to_csv,
    save_mcg,
    save_pbm,
    save_qtable,
    save_trajectory,
)
from trajcomm.maxent import QTable, exact_soft_vi
from trajcomm.mcg import Belief, McgSpec, MessageSpace
from trajcomm.mdp import MdpSpec, Step, Trajectory
from trajcomm.sweep import MetricsRow

from mdp_oracle import rollout


class TestDistFiles:
    def test_round_trip(self, tmp_path):
        d = Dist([0.5, 0.25, 0.25])
        path = tmp_path / "d.txt"
        path.write_text("".join(f"{p!r}\n" for p in d.probs.tolist()))
        assert np.array_equal(load_dist(path).probs, d.probs)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# a fair coin\n0.5\n\n0.5  # second half\n")
        assert np.array_equal(load_dist(path).probs, [0.5, 0.5])

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            load_dist(path)


def branching_mcg():
    """Action 0 in state 0 branches to state 1 or 2; targets stored in ascending order."""
    mdp = MdpSpec(
        n_states=3,
        n_actions=2,
        row_offsets=[0, 2, 3, 3, 3, 3, 3],
        next_state=[1, 2, 2],
        prob=[0.3, 0.7, 1.0],
        rewards=np.array([[0.5, -1.0], [0.0, 0.0], [0.0, 0.0]]),
        initial_state=0,
        terminal_states=frozenset({1, 2}),
        horizon_bound=1,
    )
    space = MessageSpace.explicit(2)
    return McgSpec(mdp=mdp, message_space=space, prior=Belief.uniform(space), priority=1.0)


def no_live_state_mcg():
    """One state, terminal from the start: no episode takes a step, so the
    horizon contract holds."""
    mdp = MdpSpec(
        n_states=1,
        n_actions=1,
        row_offsets=[0, 0],
        next_state=[],
        prob=[],
        rewards=np.zeros((1, 1)),
        initial_state=0,
        terminal_states=frozenset({0}),
        horizon_bound=1,
    )
    space = MessageSpace.explicit(2)
    return McgSpec(mdp=mdp, message_space=space, prior=Belief.uniform(space), priority=1.0)


class TestMcgFiles:
    @pytest.mark.parametrize(
        "mcg",
        [
            build_toy_mcg(priority=2.0),
            build_codegrid(8, noise_p=0.1),
            chain_mcg(build_channel_chain(5, 2, rewards={2: 0.5}), MessageSpace.product([2] * 4)),
            branching_mcg(),
            no_live_state_mcg(),
        ],
        ids=["toy", "codegrid", "chain", "branching", "no-live-state"],
    )
    def test_round_trip(self, mcg, tmp_path):
        path = tmp_path / "env.json"
        save_mcg(mcg, path)
        loaded = load_mcg(path)
        assert loaded.mdp.n_states == mcg.mdp.n_states
        assert loaded.mdp.n_actions == mcg.mdp.n_actions
        assert loaded.mdp.terminal_states == mcg.mdp.terminal_states
        assert loaded.mdp.initial_state == mcg.mdp.initial_state
        assert np.array_equal(loaded.mdp.rewards, mcg.mdp.rewards)
        assert np.array_equal(loaded.mdp.row_offsets, mcg.mdp.row_offsets)
        assert np.array_equal(loaded.mdp.next_state, mcg.mdp.next_state)
        assert np.array_equal(loaded.mdp.prob, mcg.mdp.prob)
        assert loaded.message_space == mcg.message_space
        assert loaded.priority == mcg.priority
        assert loaded.noise_p == mcg.noise_p
        for a, b in zip(loaded.prior.blocks, mcg.prior.blocks):
            assert np.array_equal(a.probs, b.probs)

    def test_coding_mdp_survives(self, tmp_path):
        mcg = build_coding_mcg(length_limit=4, n_messages=4)
        mdp = mcg.mdp
        path = tmp_path / "env.json"
        save_mcg(mcg, path)
        loaded = load_mcg(path).mdp
        assert np.array_equal(loaded.row_offsets, mdp.row_offsets)
        assert np.array_equal(loaded.next_state, mdp.next_state)
        assert np.array_equal(loaded.prob, mdp.prob)


class TestMcgDocumentVersions:
    def test_document_is_versioned_and_sparse(self):
        doc = mcg_to_document(branching_mcg())
        assert doc["format_version"] == MCG_FORMAT_VERSION
        assert "transitions" not in doc["mdp"]
        assert doc["mdp"]["next_state"] == [1, 2, 2]

    def test_sparse_codegrid_spec_is_small(self, tmp_path):
        path = tmp_path / "env.json"
        save_mcg(build_codegrid(8), path)
        assert path.stat().st_size < 100_000

    def test_unknown_version_rejected(self):
        doc = mcg_to_document(build_toy_mcg(priority=1.0))
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            mcg_from_document(doc)

    def test_version_one_document_rejected(self):
        # Version 1 stored a dense S x A x S tensor and wrote no
        # format_version; either way the version is named, not a missing key.
        doc = mcg_to_document(build_toy_mcg(priority=1.0))
        doc["format_version"] = 1
        with pytest.raises(ValueError, match="format version 1;"):
            mcg_from_document(doc)
        del doc["format_version"]
        with pytest.raises(ValueError, match="format version 1;"):
            mcg_from_document(doc)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.update(message_space=[1]),
            lambda doc: doc.update(prior=3),
            lambda doc: doc["message_space"].update(block_sizes="ab"),
            lambda doc: doc["mdp"].update(terminal_states=5),
            lambda doc: doc.update(priority="x"),
            lambda doc: doc["mdp"].update(n_states=True),
            lambda doc: doc["mdp"].update(n_actions=3.5),
            lambda doc: doc["mdp"].update(initial_state=1.5),
            lambda doc: doc["mdp"].update(initial_state=False),
            lambda doc: doc["mdp"].update(horizon_bound=2.5),
            lambda doc: doc["mdp"].update(terminal_states=[1.0]),
            lambda doc: doc["message_space"].update(block_sizes=[2.5]),
            lambda doc: doc["message_space"].update(block_sizes=[True]),
            lambda doc: doc["message_space"].update(factored="yes"),
            lambda doc: doc["message_space"].update(factored=0),
        ],
        ids=[
            "message-space-list",
            "prior-int",
            "block-sizes-str",
            "terminal-int",
            "priority-str",
            "n-states-bool",
            "n-actions-float",
            "initial-state-float",
            "initial-state-bool",
            "horizon-float",
            "terminal-state-float",
            "block-size-float",
            "block-size-bool",
            "factored-str",
            "factored-int",
        ],
    )
    def test_field_of_the_wrong_type_rejected(self, edit):
        # The first five used to escape as a TypeError; the rest loaded, and
        # some of them failed later in send or receive.
        doc = mcg_to_document(build_toy_mcg(priority=1.0))
        edit(doc)
        with pytest.raises(ValueError, match="game spec has a field of the wrong type"):
            mcg_from_document(doc)


class TestQTableFiles:
    def test_round_trip_preserves_bits(self, tmp_path):
        mcg = build_toy_mcg(priority=0.0)
        q = exact_soft_vi(mcg.mdp, alpha=0.37)
        path = tmp_path / "q.txt"
        save_qtable(q, path)
        loaded = load_qtable(path)
        assert loaded.alpha == q.alpha
        assert np.array_equal(loaded.values, q.values)

    def test_numpy_alpha_and_non_dyadic_values_round_trip(self, tmp_path):
        values = np.arange(1, 13, dtype=np.float64).reshape(4, 3) / 3.0
        q = QTable(values=values, alpha=np.float64(1 / 7))
        path = tmp_path / "q.txt"
        save_qtable(q, path)
        loaded = load_qtable(path)
        assert loaded.alpha == q.alpha
        assert np.array_equal(loaded.values, q.values)

    def test_header_required(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("0 0 1.0\n")
        with pytest.raises(ValueError):
            load_qtable(path)


class TestTrajectoryFiles:
    def test_round_trip(self, tmp_path):
        z = Trajectory(
            steps=(Step(0, 1, 2, 0.5), Step(3, 0, 0, -1.25)), final_state=7
        )
        path = tmp_path / "z.txt"
        save_trajectory(z, path)
        loaded = load_trajectory(path)
        assert loaded.final_state == 7
        assert loaded.steps == z.steps

    def test_numpy_reward_round_trip(self, tmp_path):
        z = Trajectory(
            steps=(Step(0, 1, 1, np.float64(1 / 3)), Step(2, 0, 1, np.float64(-0.1))),
            final_state=5,
        )
        path = tmp_path / "z.txt"
        save_trajectory(z, path)
        assert load_trajectory(path).steps == z.steps

    def test_real_rollout_round_trip(self, tmp_path):
        mcg = build_codegrid(8, noise_p=0.2)
        rng = np.random.default_rng(0)
        z = rollout(mcg.mdp, lambda s: Dist.uniform(4), rng, noise_p=0.2)
        path = tmp_path / "z.txt"
        save_trajectory(z, path)
        assert load_trajectory(path).steps == z.steps

    def test_header_required(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("0 0 0 0.0\n")
        with pytest.raises(ValueError):
            load_trajectory(path)


class TestPbm:
    def test_all_zero_image(self, tmp_path):
        img = np.zeros((8, 8), dtype=int)
        path = tmp_path / "img.pbm"
        save_pbm(img, path)
        assert np.array_equal(load_pbm(path), img)
        m = image_to_message(img, image_space(64, 1))
        assert len(m) == 64 and all(v == 0 for v in m)

    def test_random_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 2, size=(6, 10))
        path = tmp_path / "img.pbm"
        save_pbm(img, path)
        assert np.array_equal(load_pbm(path), img)

    def test_checkerboard_blocks(self):
        img = np.indices((8, 8)).sum(axis=0) % 2
        m = image_to_message(img, image_space(64, 1))
        assert m[:4] == (0, 1, 0, 1)
        assert np.array_equal(message_to_image(m, (8, 8), image_space(64, 1)), img)

    def test_block_grouping(self):
        img = np.array([[1, 0, 1, 1]])
        m = image_to_message(img, image_space(4, 2))
        assert m == (0b10, 0b11)
        assert np.array_equal(message_to_image(m, (1, 4), image_space(4, 2)), img)
        assert image_space(4, 2) == MessageSpace.product([4, 4])

    def test_codec_checks_the_pixel_count(self):
        # The space carries 4 pixels in 2-pixel blocks.
        with pytest.raises(ValueError, match="the image has 3 pixels; the message space carries 4"):
            image_to_message(np.array([[1, 0, 1]]), image_space(4, 2))
        with pytest.raises(ValueError, match="the image has 6 pixels; the message space carries 4"):
            message_to_image((0b10, 0b11), (2, 3), image_space(4, 2))

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "img.pbm"
        path.write_text("P1\n# tiny\n2 2\n1 0\n0 1\n")
        assert np.array_equal(load_pbm(path), [[1, 0], [0, 1]])

    @pytest.mark.parametrize(
        "content",
        [
            "P1\n4 2\n0110\n1001\n",
            "P1\n4 2\n01 1 0\n1\t00 1\n",
            "P1\n4 2\n0110 # first row\n# between rows\n10\n01\n",
        ],
        ids=["unseparated-rows", "mixed-separation", "comment-in-raster"],
    )
    def test_raster_bits_need_no_separator(self, content, tmp_path):
        # The plain format lets raster bits run together; common exporters
        # write them so.
        path = tmp_path / "img.pbm"
        path.write_text(content)
        assert np.array_equal(load_pbm(path), [[0, 1, 1, 0], [1, 0, 0, 1]])

    @pytest.mark.parametrize(
        "content",
        ["P4\n2 2\n", "P1\n2\n1 0", "P1\n2 2\n1 0 0\n", "P1\n2 2\n1 0 0 2\n", ""],
        ids=["magic", "truncated", "short", "bad-bit", "empty"],
    )
    def test_malformed_rejected(self, content, tmp_path):
        path = tmp_path / "img.pbm"
        path.write_text(content)
        with pytest.raises(ValueError):
            load_pbm(path)

    @pytest.mark.parametrize(
        "content, dims",
        [
            ("P1\n-2 -2\n1111\n", "-2 x -2"),
            ("P1\n2 -2\n", "2 x -2"),
            ("P1\n0 0\n", "0 x 0"),
            ("P1\n0 3\n", "0 x 3"),
        ],
        ids=["negative", "negative-height", "zero", "zero-width"],
    )
    def test_non_positive_dimensions_rejected(self, content, dims, tmp_path):
        path = tmp_path / "img.pbm"
        path.write_text(content)
        with pytest.raises(ValueError, match=f"must be positive, got {dims}"):
            load_pbm(path)

    def test_save_rejects_an_empty_image(self, tmp_path):
        path = tmp_path / "img.pbm"
        with pytest.raises(ValueError, match="at least one pixel"):
            save_pbm(np.zeros((0, 3), dtype=int), path)
        assert not path.exists()


class TestMetricsCsv:
    def test_fixed_columns_and_digits(self):
        row = MetricsRow(
            method="meme",
            beta_or_zeta=12.0,
            noise_p=0.05,
            seed=3,
            decode_accuracy=0.123456789123,
            accuracy_se=0.01,
            mean_return=1.0,
            return_se=0.0,
            mean_hamming=2.5,
            hamming_se=0.5,
            rollouts=10,
        )
        text = metrics_to_csv([row])
        header, line = text.strip().split("\n")
        assert header.startswith("method,beta_or_zeta,noise_p,seed,decode_accuracy")
        assert "0.123456789" in line
        assert line.split(",")[0] == "meme"

    def test_ints_written_in_full(self):
        # Sweep seeds reach 2**31; nine significant digits would round them.
        row = MetricsRow(
            method="meme", beta_or_zeta=2.0, noise_p=0.0, seed=2**31 - 1,
            decode_accuracy=1.0, accuracy_se=0.0, mean_return=0.0, return_se=0.0,
            mean_hamming=0.0, hamming_se=0.0, rollouts=1234567890,
        )
        line = metrics_to_csv([row]).splitlines()[1]
        assert line == "meme,2,0,2147483647,1,0,0,0,0,0,1234567890,"

    def test_error_row_roundtrip(self):
        row = MetricsRow(
            method="rl_pr", beta_or_zeta=1.0, noise_p=0.0, seed=0,
            decode_accuracy=0.0, accuracy_se=0.0, mean_return=0.0, return_se=0.0,
            mean_hamming=0.0, hamming_se=0.0, rollouts=0,
            error="ValueError: bad, cell",
        )
        text = metrics_to_csv([row])
        assert "bad; cell" in text
