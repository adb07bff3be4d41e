"""``ModelConfig`` refuses a bad field by name, before any encoder is built;
``load_state_dict`` refuses a bad state before it writes anything."""

import numpy as np
import pytest

import avoidrec.autodiff as ad
from avoidrec.checkpoint import DTYPES
from avoidrec.model import AvoidanceAwareRanker, ModelConfig, VocabSizes, recent_history
from avoidrec.training import Adam
from conftest import tiny_config

DIMENSIONS = ("d_word", "d_news", "n_heads", "d_att", "d_cat", "d_ent", "max_title_len",
              "dim_ue", "grid_d", "d_time", "user_heads")


def test_defaults_are_valid():
    ModelConfig()
    for dtype in ("float32", "float64"):
        assert ModelConfig(dtype=dtype).numpy_dtype() == np.dtype(dtype)


@pytest.mark.parametrize("name", DIMENSIONS)
@pytest.mark.parametrize("value", [0, -2, 2.5, True, "8"])
def test_dimensions_must_be_positive_integers(name, value):
    with pytest.raises(ValueError, match=name):
        ModelConfig(**{name: value})


@pytest.mark.parametrize("name", ["cnn_window", "max_history"])
def test_window_and_history_may_be_zero_but_not_negative(name):
    ModelConfig(**{name: 0})
    with pytest.raises(ValueError, match=name):
        ModelConfig(**{name: -3})


def test_heads_must_divide_their_widths():
    with pytest.raises(ValueError, match="n_heads"):
        ModelConfig(d_news=256, n_heads=7)
    with pytest.raises(ValueError, match="user_heads"):
        ModelConfig(d_news=256, dim_ue=32, user_heads=5)
    ModelConfig(d_news=256, dim_ue=32, user_heads=9)  # 288 = 9 * 32


@pytest.mark.parametrize("dtype", ["float16", "int32", "longdouble", "bogus", None])
def test_dtype_must_be_a_float_width_the_model_runs_in(dtype):
    with pytest.raises(ValueError, match="dtype"):
        ModelConfig(dtype=dtype)


def test_dtype_error_names_every_accepted_value():
    # The accepted dtypes are the ones a checkpoint holds.
    assert [ModelConfig(dtype=name).numpy_dtype() for name in DTYPES] == list(map(np.dtype, DTYPES))
    with pytest.raises(ValueError) as err:
        ModelConfig(dtype="longdouble")
    message = str(err.value)
    assert message.startswith("dtype must be one of") and "'longdouble'" in message
    assert all(f"'{name}'" in message for name in DTYPES)


@pytest.mark.parametrize("name", ["use_entities", "word_trainable"])
def test_switches_must_be_bools(name):
    with pytest.raises(ValueError, match=name):
        ModelConfig(**{name: 1})


def test_from_dict_validates():
    with pytest.raises(ValueError, match="max_history"):
        ModelConfig.from_dict({"max_history": -1})


def test_recent_history_keeps_the_newest_items():
    items = ["a", "b", "c", "d"]
    assert recent_history(items, 2) == ["c", "d"]
    assert recent_history(items, 9) == items
    assert recent_history(items, 0) == []
    assert recent_history([], 3) == []


def test_a_bad_state_changes_no_parameter():
    model = AvoidanceAwareRanker(tiny_config(), VocabSizes(12, 3, 5), seed=1)
    before = model.state_dict()
    state = {name: arr + 1.0 for name, arr in before.items()}
    last = list(state)[-1]
    state[last] = state[last][..., :-1]
    # A name from an older layout: the filter bank as one matrix, not two.
    legacy = {name: arr + 1.0 for name, arr in before.items()
              if name not in ("user.cnn_window_w", "user.cnn_cand_w")}
    legacy["user.cnn_w"] = np.concatenate([before["user.cnn_window_w"],
                                           before["user.cnn_cand_w"]])
    for bad, match in ((state, last), (legacy, "state mismatch: missing .*user.cnn_cand_w")):
        with pytest.raises(ValueError, match=match):
            model.load_state_dict(bad)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, before[name]), name


def test_adam_still_moves_the_parameters_after_a_load():
    model = AvoidanceAwareRanker(tiny_config(), VocabSizes(12, 3, 5), seed=1)
    params = model.trainable_parameters()
    opt = Adam(params, lr=0.1)
    loaded = AvoidanceAwareRanker(tiny_config(), VocabSizes(12, 3, 5), seed=2).state_dict()
    model.load_state_dict(loaded)
    for name, p in params.items():
        assert np.array_equal(p.data, loaded[name]), name
        assert np.shares_memory(p.data, opt.values), name
        p.grad = np.ones_like(p.data)
    opt.step()
    for name, p in params.items():
        assert np.allclose(p.data, loaded[name] - 0.1, rtol=0, atol=1e-8), name  # a step of lr


@pytest.mark.parametrize("use_entities", [True, False])
def test_parameters_are_keyed_by_their_own_names(use_entities):
    model = AvoidanceAwareRanker(tiny_config(use_entities=use_entities), VocabSizes(12, 3, 5))
    params = model.parameters()
    assert [p.name for p in params.values()] == list(params)
    # The news encoder's, then the grid's, the relevance predictor's and the user encoder's.
    parts = [name.split(".")[0] for name in params]
    assert list(dict.fromkeys(parts)) == ["news", "engagement", "rel", "user"]
    assert ("news.ent_emb" in params) == use_entities


def test_each_encoder_takes_its_own_settings(monkeypatch):
    # n_heads is the news encoder's, user_heads the user encoder's; the
    # relevance widths follow d_time and dim_ue, which differ here.
    config = tiny_config(n_heads=1, user_heads=4, d_time=5)
    model = AvoidanceAwareRanker(config, VocabSizes(12, 3, 5), seed=1)
    d_aug = config.d_news + config.dim_ue
    assert model.user.rel_heads.shape[0] == 4
    assert model.user.out_w.shape == (4, d_aug, d_aug // 4)
    heads = []
    attention = ad.multi_head_attention

    def watched(*args):
        heads.append(args[-1])
        return attention(*args)

    monkeypatch.setattr(ad, "multi_head_attention", watched)
    model.news.encode_titles([[5, 6, 7]])
    assert heads == [1]
    rel = model.relevance
    assert rel.t2v_freq.shape == rel.t2v_phase.shape == (1, 5)
    assert rel.engage_w.shape == (config.dim_ue + 5, 1)
    assert rel.gate_w.shape == (config.d_news + config.dim_ue + 5, 1)
