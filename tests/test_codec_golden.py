"""Byte-identity guard for the codec's writers.

The digests were computed with the codec as it stood before its separated
and bundled writers were merged into one layout writer; any change to the
bytes `compile_profile`, `pack_bundle` or `extract_profile` produce fails
here. They do not depend on PYTHONHASHSEED.
"""

import hashlib

from sbprof import codec, generate

SEPARATED = (
    "1e1984d4dfcb757d49ed7a59c71f4327f2b43daeb02c819271a9a15655c67f87",  # p0
    "9d89a081eeac24523fbe48ac41a1cf5046c52d1a7c4c9285d68878202c99ff03",  # p1
    "ca1ce84b9453f322d97e0758fd38a8570f399b7e04b29f49ccf6ecaa20df5749",  # p2
    "96c1963f3544fc837760a33aecf2eee2b862f28d1cbf2e81dc494e2986089cda",  # p3
    "7794b8b5bded4d1abbe12402e4976bf6293afd099325df9e7b7429d45c83e457",  # p4
    "23e90cc7c8cb1b85b96ec044f9323ea1a9bec5546e0e64caf8e5851da0496785",  # p5
    "d81b20727e13ec2a206c2332789eae24d26da152f47409ffb237d1352d2721a8",  # p6
    "b7609307adb54e135b9d56fd11f83b064a8c67c6bf0bc9348daa1f0bac1e28a8",  # p7
    "f10dc975d4d6298b2983203af6c269714d44bc7bfa7590a9f27c7954122282e8",  # p8
    "e10f4ec9add949f029831304bc2005e886c63360b40403aed8cbf4212c0d28ff",  # p9
    "9dc1b73c596f19a1e83e9a703aa1e14c494f2e34049a4fae8d517e2898f78601",  # p10
    "1afb32297af172c30258ec9d9cae5286e1a0810e10ef68ce83f26d80b491eec2",  # p11
    "67b9a24f56e933f9c1528ff656471a087a5834f56793ed3e4ea090be3533d4fb",  # p12
    "6e89279421bf620c2bbcb005f75a3a2a2cd8a5fdf1b8c09c975bd9739b52fe5e",  # p13
    "d2bf028a6ae7af6b08cdab8b312d0133627e36bb006708a94f8b74e77367c72e",  # p14
    "4087619db322a45c898389dd5e867ff87af2c7ea468504de56125dbb1413816b",  # p15
    "4fe71fcd81a3d5116387fa8e2392ea1c91548e5c4c8d07a132bffcafa227334c",  # p16
    "c3e7c48c44fe3d1d2e18c3c4b33a377b5ac99f8c613bdf60013a7393f347b49d",  # p17
    "589a74e052c583b6a350ed0a8abfe4234be38b08c33097dc4edbaebc79319bc9",  # p18
    "482e454a85780b6120389942967014af0b72aaa5f771c53f7ff732a06e85c31d",  # p19
    "d1567b37f347c6181e89434df65e0a7c4de2520aea90eb099eb80859a846dc51",  # p20
    "7a450c51f8e99889643aaafe55c9ed28d65c73f46e12fcb100529c6aedaa0b56",  # p21
    "82dcf0aa0917d4d1a985fab9de9dd22fd82c317a8ed010c494a625b51da01ff2",  # p22
    "356cbd076ef000e87b00720e93170f4ec54952d8a59ea1c8080961a403baed42",  # p23
    "16079c854a51efc25de8d45d654d68c12b453e02fdeb9ac93fe9af2acd6e49f3",  # p24
    "3a3e0245985accf4028786788cac057927d9ad835057b9977b38ebb87ba950cc",  # p25
    "20d3f771adc79d14c7d7c48a3a7f5e18197ad1087234a6d6ca9be469ca0022bb",  # p26
    "c3d3f5e17c54b23e51f6bea050bab61570e53544278876e72b2210cb072a80f0",  # p27
    "044f90128ed6eca9523e01c93d18aa605c4f842b263df6497bfbbb682518af8b",  # p28
    "01cf9187d58c106e96584917772a9bae226afb20794491a685603b2b5d08d37d",  # p29
    "1f850946091247107d6faa19101aca0ceb330f762405988325db26f158959e5b",  # p30
    "6ec102cb0ebc4e09fedc84bd82d0fb63410ac53f8b37dee125f6440c7d691448",  # p31
    "44d241aea3d08811316af8a55317d3e50f94c16a27abf868e98103ce7e30cf00",  # p32
    "ccaae12c7694892031f7bc58542d008c17553f4d691d07b106f4f2d72535b3a1",  # p33
    "3ec777c60669cdb283da287cdb5a958375732381f6f919cb8129d35bbfb1fa9a",  # p34
    "c4d6fbfd6500521423108c5091be378e1a93aaebe242810c7e121cd45bd6bc45",  # p35
    "aed0ed3d9517ddfe4cb4ebcb8a6d5658d90a3f428506ae10ddfeb81ee9f72d08",  # p36
    "badc4848b40d0328f241cb0bd63033961b32cd1260d7052864a92d659d3f0927",  # p37
    "147bc4dbb11a034b5568cf829d836d65c2a08c9292840092e61e4cb66e778892",  # p38
    "63788b8c0b5df88bd4f53838f91080c7c0bf92f37d786029f966cca199f6cb57",  # p39
)

BUNDLE_OF_FIRST_8 = "2692bb4fc26c6843348c76ecd15ad96d8e7a18c880ecf7d7cb2c8ca6b1c18e6d"

CONTAINER_SEED_7 = "c9a990b496afdcccdba40fe9014d420ba718c1331038560227ca363c59b1de87"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _profiles(small):
    out = []
    for seed in range(len(SEPARATED)):
        p = generate.ProfileGenerator(*small, seed=seed).generate()
        out.append(type(p)(f"p{seed}", p.default_decision, p.rules))
    return out


def test_compile_profile_digests(small):
    table, vocab = small
    got = [_sha(codec.compile_profile(p, table, vocab)) for p in _profiles(small)]
    assert got == list(SEPARATED)


def test_pack_bundle_digest_and_extraction(small):
    table, vocab = small
    profiles = _profiles(small)[:8]
    bundle = codec.pack_bundle(profiles, table, vocab)
    assert _sha(bundle) == BUNDLE_OF_FIRST_8
    _offset, views = codec.unpack_bundle(bundle, scan=False)
    assert [name for name, _ in views] == [p.name for p in profiles]
    assert [_sha(codec.extract_profile(view, vocab)) for _, view in views] == \
        list(SEPARATED[:8])


def test_container_scale_digest(large):
    table, vocab = large
    profile = generate.ProfileGenerator(table, vocab, seed=7, scale="container").generate()
    assert _sha(codec.compile_profile(profile, table, vocab)) == CONTAINER_SEED_7
