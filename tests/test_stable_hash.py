"""Golden values of the stable key hash.

The part-file layout of the crawl (``materialize.add_subj_bucket``),
``subject_lookup``'s pruning to a subject's files and the resume of a
partly written table (``PartitionManifest.ensure_layout``) all depend on
``_stable_hash_array`` giving the same value for a key in every process
and every release. These values were taken from the implementation that
wrote the existing tables; a change to any of them moves rows to other
part files."""

import pyarrow as pa

from dug_ray.shuffle import _stable_hash_array, stable_bucket_array

# ASCII, non-ASCII (2- and 3-byte UTF-8), the empty string, a null, a
# canonical CURIE and an element id
KEYS = ["merge", "café", "数据", "", None, "MONDO:0004976", "1234-s3"]
HASHES = [4380387413314331710, 11085292566539618211, 16578018057678183933,
          1760245841805064774, 0, 10286134588698984777, 11119326419326731217]
BUCKETS_64 = [62, 35, 61, 6, 0, 9, 17]


def test_string_keys():
    keys = pa.array(KEYS, pa.string())
    assert _stable_hash_array(keys).tolist() == HASHES
    assert stable_bucket_array(keys, 64).to_pylist() == BUCKETS_64


def test_chunked_large_and_encoded_inputs():
    """The value decides the hash, not the array's layout or string type."""
    chunked = pa.chunked_array([pa.array(KEYS[:3], pa.string()),
                                pa.array(KEYS[3:], pa.string())])
    assert _stable_hash_array(chunked).tolist() == HASHES
    assert stable_bucket_array(chunked, 64).to_pylist() == BUCKETS_64
    assert _stable_hash_array(pa.array(KEYS, pa.large_string())).tolist() == HASHES
    assert _stable_hash_array(pa.array(KEYS).dictionary_encode()).tolist() == HASHES


def test_repeated_keys_share_a_hash():
    keys = pa.array(["1234-s3", "merge", "1234-s3", None, None], pa.string())
    assert _stable_hash_array(keys).tolist() == [HASHES[6], HASHES[0], HASHES[6], 0, 0]


def test_int_keys():
    """Non-string keys hash as their Python objects (``add_bucket`` over an
    integer column)."""
    keys = pa.array([7, -1, None, 2 ** 40], pa.int64())
    assert _stable_hash_array(keys).tolist() == [
        639464881952108352, 18383018987633238419, 0, 13293201462900564032]
