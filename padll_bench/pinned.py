"""Digests of the program's outputs, pinned per seed.

Seed 0 is the default; seed 7 is held out (no benchmark setting was tuned
on it).  ``paper_figs`` digests follow the recipe of
``tests/experiments/test_bit_identity.py`` at paper size; the sharded
digest is ``Fig4ShardedResult.digest()`` and is the same at 1 and 2
shards.  Other seeds are checked for repeatability only.
"""

PAPER_FIGS = {
    0: {
        "fig4:open": "469ba83bfeaff1b19efb792272b0641f60e11b549a34bff0e2d52ee8a519f8e3",
        "fig4:close": "66f46433128ed6049e8e788a41a802b01180a8d5655f87fb3f158d2467d29621",
        "fig4:getattr": "1ff0ee67b4f23bd8da2cfbc8c34069dd0327362d763da968baaf36812fad00fe",
        "fig4:metadata": "c348261fb604a119b0c79a5cf17ddb8a86f1807f45f0c135ec5763e1fc2f3540",
        "fig5:baseline": "74e6d7fda42b4925f86f1407f5610ec3a526d8b0159a7a4b2ca33e9518ce3a29",
        "fig5:static": "74717608537da6069e082e25cd44d8674be7f814c8ef090c8f94d5ff586dbfc8",
        "fig5:priority": "d134e852a2361b0482625d5fc7b8e7299b30c14d3ae9dfd0fe8dc5e86e2997c0",
        "fig5:proportional": "7f195635bfbe879c99043a86c556ca7473402ba9c509e455f2db92cf5e7c3e38",
    },
    7: {
        "fig4:open": "2e7ae599b6f6db03b414ac77644d741b9359726e9ac409b991e06d67e3b4cfa9",
        "fig4:close": "ca0cb3786c466879b3a0e82cd6ef0b458eb55275180bef58c222cb9994477434",
        "fig4:getattr": "f98ab8b4cd80b8ded9abd11eaaabd8cc709e0c3abb307888a8ed3492d0065b15",
        "fig4:metadata": "1b4c1b9f77490171f9bd3b384de50cce7772b618e29effa631084b434e17b700",
        "fig5:baseline": "f2e355dcd03c33bc145cbd431e6993beb421e26bcd44a5175fef95d5789fbeb9",
        "fig5:static": "1311aa012907baf804843db94280c4abcd82733f3de4bd4ee29fc15a22f7f89c",
        "fig5:priority": "7287615c652f6f9d76c8fd69d87f94710b53e3745dd990f2368b9607bbb446fc",
        "fig5:proportional": "3d7e6647fee0981667671a53a574b353e2d4903a74450b9c2204898117382964",
    },
}

SHARDED = {
    0: "268c6bf1614f8d789ab8365f6ec5d145659778200c6b0ea4979dfa9b23c1e18e",
    7: "724bc39cfcda16c09361b98d51a33890fa2a9096a160d52b3f5589cfbf05cdfe",
}
