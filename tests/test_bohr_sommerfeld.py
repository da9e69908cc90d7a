"""Singular quantization rule: slope, fit recovery, gap variants."""

import json
import math

import numpy as np
import pytest

from champagne.bohr_sommerfeld import (B_REFERENCE, VARIANT_CHAMPAGNE,
                                       VARIANT_GENERAL, QuantizationModel,
                                       fit_model, g_n, g_n_slope,
                                       gap_denominator, predict_line)
from champagne.errors import ConfigurationError, FitError, ModelRangeError
from champagne.special_functions import EULER_GAMMA, LN2

TWO_PI = 2.0 * math.pi


def reference_model(h):
    """The closed-form B and zero phases."""
    return QuantizationModel(B=B_REFERENCE, C=0.0, offset_mod_2pi=0.0, h=h)


def gap_E_over_h(x, n, h, variant=VARIANT_CHAMPAGNE):
    """The predicted local gap on line n near x, in Delta E1 / h units."""
    return math.sqrt(2.0) * TWO_PI / gap_denominator(x, n, h, variant)


def test_slope_at_origin_frozen_value():
    # independently recomputed: (|ln h| + (5/2)ln2 + gamma + 2 ln2)/2pi
    # at x = 0, n = 0, h = 1e-3
    model = reference_model(1e-3)
    expected = (abs(math.log(1e-3)) + 2.5 * LN2 + EULER_GAMMA
                + 2.0 * LN2) / TWO_PI
    s = g_n_slope(0.0, 0, model)
    assert s == pytest.approx(expected, rel=1e-14)
    assert s == pytest.approx(1.68770, abs=1e-5)


def test_g_n_monotone_and_counts():
    model = reference_model(1e-3)
    x = np.linspace(-10, 10, 401)
    g = g_n(x, 0, model)
    assert np.all(np.diff(g) > 0)
    # number of roots in the window equals the integer count of the range
    pred = predict_line(0, model, (-10, 10))
    assert len(pred) == math.floor(g[-1]) - math.ceil(g[0]) + 1
    for k, xk in pred:
        assert abs(g_n(xk, 0, model) - k) < 1e-12


def test_model_range_errors():
    model = reference_model(1e-3)
    with pytest.raises(ModelRangeError):
        g_n(200.0, 0, model)
    with pytest.raises(ModelRangeError):
        g_n(0.0, 0, QuantizationModel(B=B_REFERENCE, C=0.0,
                                      offset_mod_2pi=0.0, h=0.5))


def test_fit_recovers_synthetic_parameters():
    # build eigenvalues from a known model, refit, compare
    true = QuantizationModel(B=1.9, C=0.8, offset_mod_2pi=2.5, h=1e-3)

    class FakeTable:
        h = 1e-3

        def n_values(self):
            return [-2, -1, 0, 1, 2]

        def line_x(self, n):
            return np.array([x for _, x in predict_line(n, true, (-9, 9))])

    fitted = fit_model(FakeTable())
    assert fitted.B == pytest.approx(1.9, abs=1e-9)
    assert fitted.C == pytest.approx(0.8, abs=1e-9)
    assert fitted.offset_mod_2pi == pytest.approx(2.5, abs=1e-8)
    assert fitted.residual < 1e-10
    assert not fitted.warning


def test_fit_on_computed_spectrum(spec_h1em3):
    model = fit_model(spec_h1em3, n_set=range(-4, 5), x_window=(-10, 10))
    assert model.B == pytest.approx(B_REFERENCE, rel=0.01)
    assert model.residual < 0.05
    assert -math.pi <= model.C < math.pi


def test_fit_predicts_the_spectrum_back(spec_h1em3):
    model = fit_model(spec_h1em3, n_set=range(-4, 5), x_window=(-10, 10))
    for n in (0, 2):
        x = np.sort(spec_h1em3.line_x(n))
        x = x[(x > -8) & (x < 8)]
        pred = predict_line(n, model, (x[0] - 0.3, x[-1] + 0.3))
        xs = np.array([xk for _, xk in pred])
        assert len(xs) == len(x)
        gap = np.min(np.diff(x))
        assert np.max(np.abs(xs - x)) < 0.15 * gap


def test_fit_requires_enough_data(spec_h1em3):
    with pytest.raises(FitError):
        fit_model(spec_h1em3, n_set=[0], x_window=(-0.2, 0.2))


def test_single_line_fit_warns(spec_h1em3):
    model = fit_model(spec_h1em3, n_set=[0], x_window=(-10, 10))
    assert model.C == 0.0 and model.warning


def test_gap_variant_constants_at_origin():
    # denominators at x = 0, n = 0 differ by exactly ln 2
    h = 1e-3
    lnh = abs(math.log(h))
    dg = gap_denominator(0.0, 0, h, VARIANT_GENERAL)
    dc = gap_denominator(0.0, 0, h, VARIANT_CHAMPAGNE)
    assert dg == pytest.approx(lnh + 3.5 * LN2 + EULER_GAMMA, abs=1e-12)
    assert dc == pytest.approx(lnh + 4.5 * LN2 + EULER_GAMMA, abs=1e-12)
    assert dc - dg == pytest.approx(LN2, abs=1e-12)


def test_champagne_gap_value_frozen():
    # direct formula evaluation at h = 1e-4 in Delta E / h units
    assert gap_E_over_h(0.0, 0, 1e-4) == pytest.approx(0.68846, abs=5e-6)


def test_gap_prediction_even_in_x():
    for x in (0.5, 3.0, 8.0):
        assert gap_E_over_h(x, 0, 1e-3) == pytest.approx(
            gap_E_over_h(-x, 0, 1e-3), rel=1e-14)


def test_model_json_roundtrip(tmp_path):
    model = QuantizationModel(B=1.73, C=-0.5, offset_mod_2pi=1.0, h=1e-3,
                              residual=0.01)
    path = str(tmp_path / "model.json")
    model.to_json(path)
    back = QuantizationModel.from_json(path)
    assert back == model
    # an older file with the dropped A and D, or with the dropped source, a
    # key the model does not have, a key it lacks, and a file that holds no
    # JSON object: ConfigurationError naming the file and the key
    written = json.load(open(path))
    without_b = {k: v for k, v in written.items() if k != "B"}
    for text, named in [(json.dumps({**written, "A": None, "D": None}), "'A'"),
                        (json.dumps({**written, "source": "fit"}), "'source'"),
                        (json.dumps({**written, "E": 1.0}), "'E'"),
                        (json.dumps(without_b), "'B'"),
                        ("[1.73, -0.5]", "not a JSON object"),
                        ("{B: 1.73", "not JSON")]:
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(ConfigurationError, match=named) as exc:
            QuantizationModel.from_json(path)
        assert path in str(exc.value)
