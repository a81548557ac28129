"""Weight-file serialization: bit-exact round trips and error reporting."""

import json

import numpy as np
import pytest

from koopbound.network import (
    CustomActivation,
    CustomHead,
    GaussianHead,
    SoftmaxHead,
)
from koopbound.trainer import build_network
from koopbound.weightio import (
    WeightFileError,
    load_weights,
    network_from_json_dict,
    network_to_json_dict,
    save_weights,
)


@pytest.fixture
def net():
    return build_network([3, 4, 2], GaussianHead(c=0.7), seed=12)


class TestRoundTrip:
    def test_bit_exact_weights(self, net, tmp_path):
        path = tmp_path / "w.json"
        save_weights(net, path)
        loaded = load_weights(path)
        for a, b in zip(net.layers, loaded.layers):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)
            assert a.s_out == b.s_out
        assert loaded.head == net.head
        assert loaded.s_in == net.s_in

    def test_save_load_save_identical_bytes(self, net, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_weights(net, p1)
        save_weights(load_weights(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_awkward_floats_survive(self, net, tmp_path):
        # values whose decimal expansion needs all 17 significant digits
        net.layers[0].weight[0, 0] = 0.1 + 0.2
        net.layers[0].weight[0, 1] = np.nextafter(1.0, 2.0)
        net.layers[0].bias[0] = 1e-308  # subnormal neighborhood
        path = tmp_path / "w.json"
        save_weights(net, path)
        loaded = load_weights(path)
        assert np.array_equal(net.layers[0].weight, loaded.layers[0].weight)
        assert np.array_equal(net.layers[0].bias, loaded.layers[0].bias)

    def test_softmax_and_custom_parts(self, tmp_path):
        net = build_network([4, 4, 3], SoftmaxHead(h_norm=2.5), seed=1)
        net.layers[0].activation = CustomActivation(
            name="saturating", derivative_sup=1.5, inverse_jacobian_sup=3.0
        )
        path = tmp_path / "w.json"
        save_weights(net, path)
        loaded = load_weights(path)
        assert loaded.head == SoftmaxHead(h_norm=2.5)
        assert loaded.layers[0].activation == net.layers[0].activation

    def test_custom_head(self, net, tmp_path):
        net.head = CustomHead(name="bounded", h_norm=4.0)
        path = tmp_path / "w.json"
        save_weights(net, path)
        assert load_weights(path).head == net.head


class TestErrors:
    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n "version": 1,\n "layers": [oops]\n}\n')
        with pytest.raises(WeightFileError, match="line 3"):
            load_weights(path)

    @pytest.mark.parametrize("version", [2, True, 1.0])
    def test_unsupported_version(self, net, version):
        doc = network_to_json_dict(net)
        doc["version"] = version
        with pytest.raises(WeightFileError, match="version"):
            network_from_json_dict(doc)

    def test_weight_count_mismatch(self, net):
        doc = network_to_json_dict(net)
        doc["layers"][0]["weights"] = doc["layers"][0]["weights"][:-1]
        with pytest.raises(WeightFileError, match="layer 1"):
            network_from_json_dict(doc)

    def test_missing_field_named(self, net):
        doc = network_to_json_dict(net)
        del doc["layers"][1]["bias"]
        with pytest.raises(WeightFileError, match="layer 2"):
            network_from_json_dict(doc)

    def test_no_layers(self):
        with pytest.raises(WeightFileError, match="no layers"):
            network_from_json_dict({"version": 1, "s_in": 1.55, "layers": []})

    @pytest.mark.parametrize(
        "edit,match",
        [
            (lambda d: d.pop("s_in"), "missing field 's_in'"),
            (lambda d: d["layers"][0]["activation"]["params"].update(alpha=2.0),
             "layer 1: alpha"),
            (lambda d: d["head"]["params"].update(width=3), "width"),
            (lambda d: d["layers"][1]["weights"].__setitem__(2, "0.5x"), "layer 2"),
            (lambda d: d["layers"][0]["bias"].__setitem__(1, float("nan")),
             "layer 1: bias"),
            (lambda d: d["head"].update(params={"h_norm": -1.0}, kind="softmax"),
             "h_norm"),
            (lambda d: d.update(layers={"layer1": {}}), "layers must be a list"),
            (lambda d: d.update(head=["gaussian"]), "invalid head"),
            # int() and float() would read these as numbers
            (lambda d: d["layers"][0].update(rows=4.7), "layer 1: rows and cols"),
            (lambda d: d["layers"][1].update(cols="4"), "layer 2: rows and cols"),
            (lambda d: d["layers"][0]["weights"].__setitem__(0, "0.5"), "layer 1: weights"),
            (lambda d: d["layers"][1]["bias"].__setitem__(0, True), "layer 2: bias"),
            (lambda d: d["layers"][0].update(s="2.0"), "layer 1: s"),
            (lambda d: d.update(s_in="1.55"), "s_in"),
            (lambda d: d["head"]["params"].update(c=True), "head params"),
        ],
        ids=["missing_s_in", "alpha_range", "head_param", "non_numeric_weight",
             "nan_bias", "negative_head_norm", "layers_not_a_list", "head_not_an_object",
             "float_rows", "string_cols", "string_weight", "bool_bias", "string_s",
             "string_s_in", "bool_head_param"],
    )
    def test_malformed_values_raise_weight_file_error(self, net, edit, match):
        doc = network_to_json_dict(net)
        edit(doc)
        with pytest.raises(WeightFileError, match=match):
            network_from_json_dict(doc)

    def test_document_not_an_object(self):
        with pytest.raises(WeightFileError, match="JSON object"):
            network_from_json_dict([1, 2])

    def test_nan_smoothness_fails_validation(self, net, tmp_path):
        doc = network_to_json_dict(net)
        doc["s_in"] = float("nan")
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightFileError, match="s_in=nan"):
            load_weights(path)

    def test_unknown_activation_kind(self, net):
        doc = network_to_json_dict(net)
        doc["layers"][0]["activation"]["kind"] = "relu6"
        with pytest.raises(WeightFileError, match="relu6"):
            network_from_json_dict(doc)

    # a head and an activation share the kind "custom", so each is tried in the other slot
    @pytest.mark.parametrize("part,obj", [
        ("activation", object()),
        ("activation", CustomHead("h")),
        ("head", object()),
        ("head", CustomActivation("a", 1.0, 1.0)),
    ], ids=["activation_object", "head_as_activation", "head_object", "activation_as_head"])
    def test_unregistered_object_not_saved(self, net, tmp_path, part, obj):
        if part == "activation":
            net.layers[0].activation = obj
        else:
            net.head = obj
        with pytest.raises(WeightFileError, match=f"unserializable {part}"):
            save_weights(net, tmp_path / "w.json")

    def test_structural_validation_on_load(self, net, tmp_path):
        # a dimension mismatch between layers is caught at load time
        doc = network_to_json_dict(net)
        doc["layers"][1]["cols"] = 3
        doc["layers"][1]["weights"] = [0.0] * 6
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightFileError, match="invalid network"):
            load_weights(path)

    def test_human_readable_file(self, net, tmp_path):
        path = tmp_path / "w.json"
        save_weights(net, path)
        doc = json.loads(path.read_text())
        assert doc["layers"][0]["name"] == "layer1"
        assert doc["layers"][0]["rows"] == 4
        assert doc["layers"][0]["cols"] == 3
