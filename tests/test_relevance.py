import math

import numpy as np
import pytest

import avoidrec.autodiff as ad
from avoidrec.relevance import RelevancePredictor
from conftest import tiny_config, total

D_NEWS, DIM_UE = 6, 4


def make_predictor(seed=0, d_time=5):
    config = tiny_config(d_news=D_NEWS, dim_ue=DIM_UE, d_time=d_time, user_heads=2)
    return RelevancePredictor(config, np.random.default_rng(seed))


def rand_inputs(pred, seed=1):
    rng = np.random.default_rng(seed)
    n = ad.constant(rng.normal(size=(1, D_NEWS)), dtype=np.float64)
    ue = ad.constant(rng.normal(size=(1, DIM_UE)), dtype=np.float64)
    return n, ue


class TestTime2Vec:
    def test_zero_elapsed_reduces_to_phases(self):
        pred = make_predictor()
        phase = pred.t2v_phase.data[0]
        out = pred.time2vec(0.0).data[0]
        assert np.allclose(out[0], phase[0], atol=1e-12)
        assert np.allclose(out[1:], np.sin(phase[1:]), atol=1e-12)

    def test_sinusoidal_components_bounded(self):
        pred = make_predictor()
        for hours in (0.0, 0.5, 7.3, 1000.0, 123456.0):
            out = pred.time2vec(hours).data[0]
            assert (np.abs(out[1:]) <= 1.0 + 1e-12).all()

    def test_periodicity(self):
        # Oracle: component i has period 2*pi/freq_i; advancing one full
        # period leaves it unchanged.
        pred = make_predictor()
        pred.t2v_freq.data[:] = np.array([[0.3, 0.5, 1.0, 2.0, 0.25]])
        base_hours = 3.7
        base = pred.time2vec(base_hours).data[0]
        for i in range(1, pred.t2v_freq.shape[1]):
            period = 2 * math.pi / pred.t2v_freq.data[0, i]
            shifted = pred.time2vec(base_hours + period).data[0]
            assert shifted[i] == pytest.approx(base[i], abs=1e-9)

    def test_width(self):
        assert make_predictor(d_time=1).time2vec(4.0).data.shape == (1, 1)
        assert make_predictor(d_time=7).time2vec(4.0).data.shape == (1, 7)


class TestRelevance:
    def test_output_strictly_inside_unit_interval(self):
        pred = make_predictor()
        for seed in range(20):
            n, ue = rand_inputs(pred, seed)
            t_el = pred.time2vec(float(seed) * 3.3)
            out = pred.relevance(n, ue, t_el, clicks_norm=seed / 20).data[0, 0]
            assert 0.0 < out < 1.0

    def test_zero_gate_weights_average_the_branches(self):
        pred = make_predictor()
        pred.gate_w.data[:] = 0.0
        pred.gate_b.data[:] = 0.0
        n, ue = rand_inputs(pred)
        t_el = pred.time2vec(2.0)
        r_content = ad.affine(n, pred.content_w, pred.content_b).data[0, 0]
        r_engage = ad.affine(ad.concat([ue, t_el], axis=1),
                             pred.engage_w, pred.engage_b).data[0, 0]
        pred.w_clicks.data[:] = 0.0
        pred.w_mixed.data[:] = 1.0
        out = pred.relevance(n, ue, t_el, clicks_norm=0.7).data[0, 0]
        expected = 1.0 / (1.0 + math.exp(-(r_content + r_engage) / 2.0))
        assert out == pytest.approx(expected, rel=1e-12)

    def test_zero_click_weight_ignores_clicks(self):
        pred = make_predictor()
        pred.w_clicks.data[:] = 0.0
        n, ue = rand_inputs(pred)
        t_el = pred.time2vec(1.0)
        a = pred.relevance(n, ue, t_el, clicks_norm=0.0).data
        b = pred.relevance(n, ue, t_el, clicks_norm=1.0).data
        assert np.array_equal(a, b)

    def test_strictly_increasing_in_clicks(self):
        pred = make_predictor()
        assert pred.w_clicks.data[0, 0] > 0
        n, ue = rand_inputs(pred)
        t_el = pred.time2vec(5.0)
        values = [pred.relevance(n, ue, t_el, c).data[0, 0]
                  for c in np.linspace(0, 1, 9)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_gate_strictly_inside_unit_interval(self):
        pred = make_predictor()
        for seed in range(10):
            n, ue = rand_inputs(pred, seed)
            t_el = pred.time2vec(0.3)
            gate = ad.sigmoid(ad.affine(ad.concat([n, ue, t_el], axis=1),
                                        pred.gate_w, pred.gate_b)).data[0, 0]
            assert 0.0 < gate < 1.0

    def test_grad_check(self):
        pred = make_predictor()
        n, ue = rand_inputs(pred)

        def fn():
            t_el = pred.time2vec(3.25)
            return pred.relevance(n, ue, t_el, clicks_norm=0.4)

        params = list(pred.parameters().values())
        assert ad.grad_check(fn, params, eps=1e-5) < 1e-3


class TestBatch:
    """C articles scored as one (C, .) batch, row by row."""

    def _batch(self, pred, c=3, seed=2):
        rng = np.random.default_rng(seed)
        news = ad.constant(rng.normal(size=(c, D_NEWS)), dtype=np.float64)
        ue = ad.constant(rng.normal(size=(c, DIM_UE)), dtype=np.float64)
        return news, ue, list(rng.random(c) * 40), list(rng.random(c))

    def test_time2vec_rows_equal_single_times(self):
        pred = make_predictor()
        hours = [0.0, 2.5, 71.0]
        batch = pred.time2vec(hours).data
        assert batch.shape == (3, pred.t2v_freq.shape[1])
        for i, h in enumerate(hours):
            assert np.allclose(batch[i], pred.time2vec(h).data[0], atol=1e-12)

    def test_relevance_rows_equal_single_articles(self):
        pred = make_predictor()
        news, ue, hours, clicks = self._batch(pred)
        batch = pred.relevance(news, ue, pred.time2vec(hours), clicks).data
        assert batch.shape == (3, 1)
        for i in range(3):
            row = slice(i, i + 1)
            single = pred.relevance(ad.slice_(news, rows=row), ad.slice_(ue, rows=row),
                                    pred.time2vec(hours[i]), clicks[i]).data
            assert batch[i, 0] == pytest.approx(single[0, 0], abs=1e-12)

    @pytest.mark.parametrize("d_time", [1, 5])  # 1: no periodic component at all
    def test_grad_check(self, d_time):
        pred = make_predictor(d_time=d_time)
        news, ue, hours, clicks = self._batch(pred)

        def fn():
            return total(pred.relevance(news, ue, pred.time2vec(hours), clicks))

        params = list(pred.parameters().values())
        assert ad.grad_check(fn, params, eps=1e-5) < 1e-3
