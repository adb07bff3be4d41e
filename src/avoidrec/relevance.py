"""Engagement- and time-aware relevance scoring for a batch of articles.

Two sub-scores are mixed by a learned gate: one driven purely by the
article content vector, the other by the engagement-cell embedding plus a
periodic encoding of hours elapsed since the article surfaced.  The mix
is then combined with a normalized click count through two trainable
scalar weights and squashed to (0, 1).  Every step is row-wise: C articles
are scored as one (C, .) batch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad

if TYPE_CHECKING:
    from .model import ModelConfig


class RelevancePredictor:
    def __init__(self, config: ModelConfig, rng):
        d_news, dim_ue, d_time = config.d_news, config.dim_ue, config.d_time
        self.dtype = config.numpy_dtype()

        def xav(fan_in, fan_out):
            return ad.xavier_uniform(rng, fan_in, fan_out, dtype=self.dtype)

        # One linear component, the rest sinusoidal.
        self.t2v_freq = ad.parameter(
            rng.uniform(-1.0, 1.0, size=(1, d_time)), name="rel.t2v_freq", dtype=self.dtype)
        self.t2v_phase = ad.parameter(
            rng.uniform(-1.0, 1.0, size=(1, d_time)), name="rel.t2v_phase", dtype=self.dtype)
        gate_in = d_news + dim_ue + d_time
        self.gate_w = ad.parameter(xav(gate_in, 1), name="rel.gate_w")
        self.gate_b = ad.parameter(np.zeros(1, dtype=self.dtype), name="rel.gate_b")
        self.content_w = ad.parameter(xav(d_news, 1), name="rel.content_w")
        self.content_b = ad.parameter(np.zeros(1, dtype=self.dtype), name="rel.content_b")
        self.engage_w = ad.parameter(xav(dim_ue + d_time, 1), name="rel.engage_w")
        self.engage_b = ad.parameter(np.zeros(1, dtype=self.dtype), name="rel.engage_b")
        self.w_clicks = ad.parameter(np.ones((1, 1), dtype=self.dtype), name="rel.w_clicks")
        self.w_mixed = ad.parameter(np.ones((1, 1), dtype=self.dtype), name="rel.w_mixed")

    def parameters(self):
        return {p.name: p for p in (self.t2v_freq, self.t2v_phase, self.gate_w, self.gate_b,
                                    self.content_w, self.content_b, self.engage_w, self.engage_b,
                                    self.w_clicks, self.w_mixed)}

    def time2vec(self, elapsed_hours) -> ad.Tensor:
        """Periodic time embedding (C, d_time) of one or C elapsed times.

        Component 0 is linear in the elapsed time, the others are
        sin(freq * t + phase), so they stay in [-1, 1] for any horizon.
        """
        hours = ad.constant(np.reshape(elapsed_hours, (-1, 1)), dtype=self.dtype)
        z = ad.add(ad.matmul(hours, self.t2v_freq), self.t2v_phase)
        linear = ad.slice_(z, cols=slice(0, 1))
        periodic = ad.sin(ad.slice_(z, cols=slice(1, None)))  # (C, 0) when d_time is 1
        return ad.concat([linear, periodic], axis=1)

    def relevance(self, news_vec: ad.Tensor, ue: ad.Tensor, t_el: ad.Tensor,
                  clicks_norm) -> ad.Tensor:
        """Scores (C, 1) in (0, 1) for C (article, time) rows.

        ``clicks_norm`` holds one snapshot click count per row, squashed
        into [0, 1] upstream (log-scaled by the bucket maximum).
        """
        gate = ad.sigmoid(ad.affine(ad.concat([news_vec, ue, t_el], axis=1),
                                    self.gate_w, self.gate_b))
        r_content = ad.affine(news_vec, self.content_w, self.content_b)
        r_engage = ad.affine(ad.concat([ue, t_el], axis=1), self.engage_w, self.engage_b)
        # gate.content + (1 - gate).engage, as engage + gate.(content - engage)
        mixed = ad.add(r_engage, ad.mul(gate, ad.add(r_content, ad.scale(r_engage, -1.0))))
        clicks = ad.constant(np.reshape(clicks_norm, (-1, 1)), dtype=self.dtype)
        return ad.sigmoid(ad.add(ad.matmul(clicks, self.w_clicks),
                                 ad.matmul(mixed, self.w_mixed)))
