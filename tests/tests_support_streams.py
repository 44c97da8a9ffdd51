"""The scalar reference for one stream key, against which the tests check `fald.streams.key_grid`."""

from fald.streams import _GOLDEN, _mix64_int, _tag_to_u64


def stream_key(master_seed, replication, iteration, client_tag, purpose_tag) -> int:
    """64-bit key identifying one stream; pure function of its five inputs."""
    h = _mix64_int(int(master_seed) + _GOLDEN)
    for field in (int(replication), int(iteration), _tag_to_u64(client_tag), _tag_to_u64(purpose_tag)):
        h = _mix64_int(h ^ field)
    return h
