import math

import pytest

from mcis.config import (
    AntennaMode,
    dump_config,
    load_config_file,
    parse_config_text,
    validate_config,
)
from mcis.errors import (
    BadBeamwidthError,
    BandwidthSplitError,
    ChannelSplitError,
    ConfigError,
    NonSquareBsError,
    OddInterfacesError,
)


def base_raw(**overrides):
    raw = dict(n=100, b=4, m=4, C=6, C_A=4, C_I=2,
               W=30.0, W_A=10.0, W_I=10.0, H=5)
    raw.update(overrides)
    return raw


def test_valid_config_accepted():
    cfg = validate_config(base_raw())
    assert cfg.b0 == 2
    assert cfg.W == cfg.W_A + 2 * cfg.W_I
    assert cfg.antenna_mode is AntennaMode.OMNI


def test_bandwidth_split_enforced():
    with pytest.raises(BandwidthSplitError):
        validate_config(base_raw(W=25.0))


def test_odd_interfaces_rejected():
    with pytest.raises(OddInterfacesError):
        validate_config(base_raw(m=3))


def test_non_square_bs_rejected():
    with pytest.raises(NonSquareBsError):
        validate_config(base_raw(b=5))


def test_channel_split_enforced():
    with pytest.raises(ChannelSplitError):
        validate_config(base_raw(C=7))
    with pytest.raises(ChannelSplitError):
        validate_config(base_raw(C=5, C_I=1, C_A=5, W_A=30.0, W_I=0.0))  # C_A+C_I=6


def test_beamwidth_bounds():
    with pytest.raises(BadBeamwidthError):
        validate_config(base_raw(theta=0.0))
    with pytest.raises(BadBeamwidthError):
        validate_config(base_raw(phi=2 * math.pi + 0.1))
    cfg = validate_config(base_raw(theta=2 * math.pi, antenna_mode="directional"))
    assert cfg.antenna_mode is AntennaMode.DIRECTIONAL


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key: bogus"):
        validate_config(base_raw(bogus=1))


def test_h_and_delta_bounds():
    with pytest.raises(ConfigError):
        validate_config(base_raw(H=0))
    with pytest.raises(ConfigError):
        validate_config(base_raw(delta=0.0))
    with pytest.raises(ConfigError):
        validate_config(base_raw(r_factor=0.5))
    with pytest.raises(ConfigError, match="rng_seed"):
        validate_config(base_raw(rng_seed=-1))


@pytest.mark.parametrize("key,value", [
    ("r_factor", "nan"), ("delta", "inf"), ("W", "inf"), ("bs_service_constant", "nan"),
    ("bs_service_constant", 0.0), ("bs_service_constant", -1.0),
])
def test_non_finite_and_nonpositive_constants_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        validate_config(base_raw(**{key: value}))


def test_parse_config_text_comments_and_errors():
    raw = parse_config_text("# comment\nn = 10\nb=1  # trailing\n\nm = 2\n")
    assert raw == {"n": "10", "b": "1", "m": "2"}
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("not a pair\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("n = 1\nn = 2\n")


def test_config_file_round_trip(tmp_path):
    cfg = validate_config(base_raw(antenna_mode="directional", theta=math.pi / 12))
    path = tmp_path / "net.cfg"
    path.write_text(dump_config(cfg))
    again = load_config_file(path)
    assert again == cfg


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n = 10\nwhatever = 3\n")
    with pytest.raises(ConfigError, match="whatever"):
        load_config_file(path)


def test_b0_consistency_checked():
    with pytest.raises(NonSquareBsError):
        validate_config(base_raw(b0=3))
    cfg = validate_config(base_raw(b=9, b0=3))
    assert cfg.b0 == 3


def test_with_overrides_revalidates():
    cfg = validate_config(base_raw())
    with pytest.raises(OddInterfacesError):
        cfg.with_overrides(m=5)
