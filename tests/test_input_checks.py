"""Each input check of the library's public functions raises its exact message."""

import re

import numpy as np
import pytest

from qpebble.analysis import bitsign4_wrong_run_prob, required_n, success_lower_bound
from qpebble.encoding import EncodingScheme, basis_family, decode_full_path, encode_full_path, encode_port
from qpebble.graph import GadgetSpec, gen_gpqr, gen_padded_path, shortest_path
from qpebble.rng import RngStream

CHECKS = {
    "success_lower_bound": (lambda: success_lower_bound(0, 4, 5), "dist and n must be >= 1, got dist=0, n=5"),
    "required_n_dist": (lambda: required_n(0, 4), "dist must be >= 1, got 0"),
    "required_n_eps": (lambda: required_n(10, 4, 1.0), "eps must be in (0, 1), got 1.0"),
    "required_n_underflow": (lambda: required_n(10**30, 6, 1e-300), f"eps / dist rounds to 0 at eps=1e-300, dist={10**30}"),
    "bitsign4_wrong_run_prob": (lambda: bitsign4_wrong_run_prob(0), "n must be >= 1, got 0"),
    "basis_family": (lambda: basis_family(EncodingScheme.QUDIT, 4), "scheme qudit has no qubit basis family"),
    "encode_port": (lambda: encode_port(1, 4, EncodingScheme.QUDIT), "encode_port does not apply to scheme qudit"),
    "encode_full_path": (lambda: encode_full_path([5], 4), "port 5 outside 1..4"),
    "decode_full_path": (lambda: decode_full_path(0, 4, 2), "state index 0 outside 1..16"),
    "shortest_path": (lambda: shortest_path(gen_padded_path(3, 4, 1), -1, 3), "invalid endpoint: s=-1, t=3"),
    "gen_gpqr": (lambda: gen_gpqr(GadgetSpec((3, 0, 0))), "pendant_ports must be three values in 0..2, got (3, 0, 0)"),
    "runs": (lambda: RngStream(1).runs(np.array([0]), 8193), "run length must be <= 8192, got 8193"),
    "uniforms": (lambda: RngStream(1).uniforms(-1), "draw count must be non-negative"),
    "below": (lambda: RngStream(1).below(0), "bound must be positive"),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_an_input_check_raises_its_message(name):
    call, message = CHECKS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
