"""Byte-identity manifest of builds and of ``slt verify``.

Each folding case pins the sha256 of the tree file ``write_tree`` writes
and of ``canonical_dumps(report.as_dict())``.  The pins were taken before
the folding front end became array code, so any change to a float, a
vertex or its numbering, or a report field on these inputs fails here.
The pyramid and core2d cases, and the ``slt verify`` reports, were pinned
before the tree became one array record from build to file to
``slt verify``.

The inputs: perfbench's fold-d8 (seeds 1-3, both point sets) and
fold-batch (seeds 1-2, passes 0-1) instances, made with the same
generator expression, 60-point clouds in d = 2, 3, 5, 8 at three eps,
a ray, a corner-rooted lattice and two points.
"""
from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest

from slt.cli import canonical_dumps, run_cli, write_points, write_tree
from slt.core2d import core2d_points
from slt.mst_path import PointCloud
from slt.pipeline import assemble_core2d, assemble_slt
from slt.pyramid import GridSpec, assemble_pyramid, pyramid_points


def uniform(seed: int, n: int, d: int, salt: tuple[int, ...] = ()) -> tuple:
    """n points uniform in [0,1]^d, the one nearest the centre first (the root)."""
    pts = np.random.default_rng([seed, n, d, *salt]).random((n, d))
    c = int(np.argmin(((pts - 0.5) ** 2).sum(axis=1)))
    pts[[0, c]] = pts[[c, 0]]
    return tuple(map(tuple, pts.tolist()))


def cases():
    """(id, points, root, eps) of every pinned build."""
    for seed, k in itertools.product((1, 2, 3), (0, 1)):
        yield f"fold-d8/{seed}/{k}", uniform(seed, 500, 8, (k,) if k else ()), 0, 0.04
    cells = [(d, n, e) for d in (2, 3, 5, 8) for n in (10, 50) for e in (0.25, 0.09, 0.04)]
    for seed, p in itertools.product((1, 2), (0, 1)):
        for c, (d, n, e) in enumerate(cells):
            yield f"fold-batch/{seed}/{p}/{c}", uniform(seed, n, d, (p, c)), 0, e
    for d, e in itertools.product((2, 3, 5, 8), (0.25, 0.09, 0.04)):
        yield f"cloud/{d}/{e}", uniform(7, 60, d), 0, e
    yield "ray", tuple((float(t), 2.0 * t, 0.0) for t in range(8)), 0, 0.09
    lattice = tuple(map(tuple, itertools.product((0.0, 1.0, 2.0), repeat=3)))
    yield "lattice", lattice, 0, 0.09
    yield "two-points", ((0.0, 0.0), (3.0, 4.0)), 0, 0.04


def hashes(points, root, eps, path) -> tuple[str, str]:
    """sha256 of the tree file and of the report's canonical dump."""
    graph, tree, report = assemble_slt(PointCloud(points, root), eps)
    write_tree(path, graph, tree)
    with open(path, "rb") as fh:
        tree_sha = hashlib.sha256(fh.read()).hexdigest()
    return tree_sha, hashlib.sha256(canonical_dumps(report.as_dict()).encode()).hexdigest()


def test_manifest_covers_every_case():
    assert [c[0] for c in cases()] == list(PINS)


@pytest.mark.parametrize("case", list(cases()), ids=lambda c: c[0])
def test_build_is_byte_identical_to_its_pin(case, tmp_path):
    name, points, root, eps = case
    assert hashes(points, root, eps, tmp_path / "tree.json") == PINS[name]


# id: (tree file sha256, report sha256)
PINS = {
    "fold-d8/1/0": (
        "882b5da9b216900fba636fa243359de6e3be24995fb8533be9685bce7c78e384",
        "087170eba105a796e25464f40cc80805a0824b096fe7a65a5e4f52efe1bda910"),
    "fold-d8/1/1": (
        "8b7248be8e818c072c83633630adf09f18ee8c727b3489a36573d906dfa8ed4e",
        "76b4ee1c38b5473c28cce66bba6195a4f846afbe50da7ecde34ecb94d02b9885"),
    "fold-d8/2/0": (
        "adab684842565427222e26ba223f90dfa89dae72e25d985e491cab131f276333",
        "c4a6b269afc0e81bf649f0b92bea0d5fd978fd2fbc662d6ce5d44e75b82e68de"),
    "fold-d8/2/1": (
        "65ec4a70d4d3ac79d6b038cc97bf3c75f8d209b078a6f6e7ce26b9fa65b38bd6",
        "5ea0375a16719a4b2c1eeeec136243698ced4f7b66b1f5485b567b6d2e918bf1"),
    "fold-d8/3/0": (
        "a124df2463c2bdf843c8f899a2380f30fb057291f429d129cf00a55261b87cc3",
        "36240a1e4420992cb99102ca90ce02424bba769148ac4f630855c124b2f8738f"),
    "fold-d8/3/1": (
        "25faf1a9b0f82e5fd7f3bb55013c3f4a7df8c70478666c33547f8d19bb0ffc71",
        "636a43591a517965bd4c611ddd72efe6cd3c3a2ca21883e07b2b6cc199733b89"),
    "fold-batch/1/0/0": (
        "8d7d191c02d9a60603d990c43fa836455960c29b7888b6c44d43e549834e1fda",
        "d83ed00632ba61a6cdc1bbe794e880301515fe623eec4bc3a083f3bae346e39d"),
    "fold-batch/1/0/1": (
        "a40b13ea52f36f8154999e979067b1c2c4c5f04416a8131e2f410219407514f5",
        "bb458a0db5d7fac46ffc1d2babf84dae85a79a95da9eda450423bb0d2c31719b"),
    "fold-batch/1/0/2": (
        "a292d8beb48e9c236e6a9d6253e4e98d0a49e33a236846609ba23272b6b0e188",
        "38375f9907ef460d73f129b29679b06d53e904c61b95ba21be94f3cf08fc8de7"),
    "fold-batch/1/0/3": (
        "bb5a4a157dfff91a2cb06e5b75d8cc1afbecda0fc2ce2677a597ade13b3d016b",
        "decd3488f2f0b0cca7411a3703e4d0c416fe26457a9f0032c5b14250404f55c8"),
    "fold-batch/1/0/4": (
        "59048e741a03f60eaf33dfc1543d48cd44077189116d0c9112d3f86c4811c449",
        "5aa94b5f2458272c6ec4711a3e1d16bf41dab835cd4e9d9bc64546cb95dac8bc"),
    "fold-batch/1/0/5": (
        "6f40de7c0feaef83564bf2a61c32ec69cb80de6a0c82cb2e199dee814b23b108",
        "1d74548fe91c33a4379a48050cb94b270453848234792ec4379e20b14602de12"),
    "fold-batch/1/0/6": (
        "b402929a3eda096fad16d77cfc93d9985542d9068ae3d6a5daa9939a7188f1ae",
        "4f7a0076278d53376031af5c4ab36c4e8a92f35044627ccb4b4cf1c7a06b42ac"),
    "fold-batch/1/0/7": (
        "309bc96343b0799dacd2f394857bc5d36072b467e6ede5d954c5b97699f8f98e",
        "b979d16f82683967c68e9035ed886ca4c4427cdac1b5e090a9967cd170e111ad"),
    "fold-batch/1/0/8": (
        "7dda1b3c04cba84aa3e2bf1bb86be0c4bd52556c880da6772ff0fb8854efc38f",
        "1e0558fd89c0a58988a34032791ba78aa4eabd7d1eb1c2a4dc33162343c90a1e"),
    "fold-batch/1/0/9": (
        "4c16e5c70e80466939680e2d461c11cbf9aa922772c65cfa536bcb990ffe4767",
        "5463642fc4dac14842457c392f6f6600e88347b85101864ce28d175a2c7b808d"),
    "fold-batch/1/0/10": (
        "9dec7a43cf7b0923156e2eb82823e610d3d1c29e44b95a69f08692d210c4d150",
        "ed7d9baa2c982f3d238e07a96f4bf4b5352b6e09cfea583ad1b5c5964064ed80"),
    "fold-batch/1/0/11": (
        "b6c1d3844c131d390cab55746e3e6f29e9936de2c15231f6a46a91540a2857f2",
        "8b81f87251994468a78d66409f65435b83a8461e5d4207e9b9f652151bdb4a63"),
    "fold-batch/1/0/12": (
        "8cd10332750e1a5a69afeb5a75b6cd04e9a8bba1f29d2f58b34a1c5b3dcd5523",
        "b874d2fb4895c5eb9500f7b7cae7888e908eec0b6a955336e05d1e1bcbac24ae"),
    "fold-batch/1/0/13": (
        "59476934be1fd5b5ee17c8b39f6aeaaaf537149a423e562e5fd48ba2b6fa337c",
        "57106c996bfaf2e0f50dabfddf8818c7cb797ada7039ef828c17d1297a92faeb"),
    "fold-batch/1/0/14": (
        "aaa31356c663a542a2a01797a0cdba5a04f329ee5e2468d2197f34a2265ef2e4",
        "a721186a31d2b9dc6a2515686c4367dad8e8b8de9c0e57dff77f261823c9ec1f"),
    "fold-batch/1/0/15": (
        "37b3601d64286c5a5b645254d775d49704e102784168ee9fef2b598d21b04975",
        "d1da365e1542d1886f8b9a162bbe548a28882214f092507b225d7c5f15a6c221"),
    "fold-batch/1/0/16": (
        "1f376b66767df4b183a9373b75a6ee9b0aeefa86ef6c02705b2575c9d4fc312e",
        "440f54f18ff6f7b9cf495d328285e7f9eed522281f6a170e28eef7b38928c0e6"),
    "fold-batch/1/0/17": (
        "5dd08f5df122cbac47a0ba5d05e79bdb6fa22145ff224c77e6047c2914c103b3",
        "5b6723841ffddd817480154aacf1573e8ae17213de6694820494b036d66614f2"),
    "fold-batch/1/0/18": (
        "a4076c679e1c9422e161624ecb652e45277653c45f436c8ee880a40a72775ffa",
        "a2d0fd8eb0e79a399ac26acd3940b407a04a334c761425976998fa13a4fcc152"),
    "fold-batch/1/0/19": (
        "12c54a499736a916dd3cda1024712496934d6fd6dda017fa2f1655406a081f99",
        "25a57bacc17ea64e14f27f7af50cf5b6a02e82d9a7da64124358d1ef0d59fba2"),
    "fold-batch/1/0/20": (
        "868aaed5962991bfbafb8a77197af97622d67f8fb8ef02dcc5b319ccca240db9",
        "20e4eb93047a937bb7cbf471646417d20a92cfd3fc27dc4432e51a8ed8d7b9e9"),
    "fold-batch/1/0/21": (
        "eb8707558f2065e8093e5b8b63737ac695dbd79ec600e9b6118c72935ef4cbf5",
        "d99165c94d267c8f5156a3e0131ba14e708f0847550de28e2b63ef4b9ade3189"),
    "fold-batch/1/0/22": (
        "3fa26bd2bb56b0f96ad724554953f4ad8c8219925e59359aba25cbef03556032",
        "80f52da70afd4d3b0eaae7234dfbf403bbd48e9387d61da3960484ec2d4d3730"),
    "fold-batch/1/0/23": (
        "406c18b26c6585a4d891b763e662740ad7b5ae37d8d6511916018d574dbd9e53",
        "c8ad3dbe4393f88b999abbe454ce2d81a6af357cb309d20bb742d0b2f87a63a1"),
    "fold-batch/1/1/0": (
        "a34b4fcd778dfc4f9361094b9e8921fb7f6d693e84118d610263bc15135d579f",
        "d39536dc7e056ab7450145e5f35e785fa33e0f230ca16baa2c509543cdd05af3"),
    "fold-batch/1/1/1": (
        "839bfded357b5afdae5cbbe86a6ee037fa5a38b4a8e55258589a6840ec17ba2a",
        "8cf6f934e53c1ea0798dfa58d3516b7ac7bec33f77693ee03f6a51c75c962fbd"),
    "fold-batch/1/1/2": (
        "33913599617e9bbee9e2a6a839194df5bd94b416e15572643ab2f40def9a0e39",
        "0b6f5b2f9929f2bbad59ff79e331ebe54181da1049bdec8b9192bef965734160"),
    "fold-batch/1/1/3": (
        "7a7bd9f06d8876192edf4ad509b01da050c44797a847372f2cd074d03c69991d",
        "a17a65f104b5e423896601650dcb75045e6ecf1804229053c0fdb298665373d6"),
    "fold-batch/1/1/4": (
        "bdffc187d9a442ba7ead4a498b557fe5711ce3b4adb729d3a9203bd43b62cd27",
        "25ba264606d13d4a2ed244bb110c60745d9b33abbcdad1b9c8b544ac5f54c31a"),
    "fold-batch/1/1/5": (
        "9d38372e9b5beda366e7e2391c9f71f06f3efdd5067821e6c6dc5b2382e64919",
        "b36e7f72c08cba9fc0d0377f4a2ebe7fab88c5b3235fa97cfb4442324fd3be79"),
    "fold-batch/1/1/6": (
        "6cbbaa2bf27569c676e632d5272186c95f83a0dac92986f565004870cb6a3a31",
        "32aed9518c6f312566d822933fb1f73f6007fcaf13947e90d39770e5a229ac60"),
    "fold-batch/1/1/7": (
        "12c1c3298d00b04df0fbb357f1f73f45ebad8fdab305801b49e19469a6b044c0",
        "0739f9e812b3aeef5440e493614561ca5fd708a0506f2cdc2a950f71d66d9ff0"),
    "fold-batch/1/1/8": (
        "a45797df6801b4f90d6ec8989e0c141cf710fea73f2aa0af5aa9e681088ae3d5",
        "628f135d21632837c4ce066d8bcfc0f7c7a84aee3b54d019359ce3621d39bd8f"),
    "fold-batch/1/1/9": (
        "989063054745ba5658fe20d397519491dc8a09cb2c4606651ca36eebba96aea8",
        "41b26f93663ef6ad2110ff2c003e7b269df14a09ed8811da773d5ef7a62b472a"),
    "fold-batch/1/1/10": (
        "464ca8c975ad4cd6f02e401026566faaef27cbca573cc80ad7f36b18cbf53b95",
        "5038d8df0e8eabd94b8da6e9d6d7439a445abe84ef9259c474097abd2ce9795f"),
    "fold-batch/1/1/11": (
        "8fa1805000b6811bc7706fae25b24481a3374a9994c989abb648248959fcced3",
        "3f3c2ef087ddf61d8091b7c6af2dc54741385fbe21f73c78d1452bd68cdb0258"),
    "fold-batch/1/1/12": (
        "7fbebb875ff52931d547e25ae70e194b18a909e15b568e9564dbbabe480d19d2",
        "c518d68672073119fde10f9945481b0c1ef2a4c65cd57d27fd096bb900898b3a"),
    "fold-batch/1/1/13": (
        "e276f04ce7e203fea4c5b6b263ccb4a80f60d0c908aed6fae122a59dcda28ccc",
        "715cfdb64df0da135b3efc602c73964ef1712868bb31727bb6fbd35988012ed8"),
    "fold-batch/1/1/14": (
        "73bf05bb253a70bec421ec70cc817a5203e4e4c1424291a19b02fda68f14a6e6",
        "c42db59844d6ff51b4a4a60aa8795006b291b8581c12949439615f03f57b2eb1"),
    "fold-batch/1/1/15": (
        "2bf917f60d5cf255c8cf290f2ea601ce89ae14ec58dbb5206913184ca59936ff",
        "c32f0bcc64c44442d5eaec29abaca910a4663024a6d3c418f5db344de6c930dd"),
    "fold-batch/1/1/16": (
        "0232ac71ed614cc7b7a1f44df33e0d00abbb4b7f14fb4d82258722ca6631b45a",
        "116c434380b53a2315360cf6f95efc9c3b4a21a65f61621ed0ab89b3f29b0bdf"),
    "fold-batch/1/1/17": (
        "1d4f6484fc376349180ab56505adf424c09b5ffeadbd468962526b4abb52632a",
        "e956c5c1ab9bf98b0b2ecf8f57b10b1927d6d9256cd7b15e20d94c1fae99d5cf"),
    "fold-batch/1/1/18": (
        "d128d37690282a5bbe9534b8a6ab66bb30d75b264f685fff7f14e7f93e050b5b",
        "33709cd30406daf5c066632e6a60cbf6c604681115395d68bebd3b84783df190"),
    "fold-batch/1/1/19": (
        "3f3b98c991cc9d23681a58e13aa4d8523ba3718e1723419c0bbb79647dbc4377",
        "6dae3ca938775f17a651de1bf8062b7a5e120030f11f6bbf1a128dea8fd520a2"),
    "fold-batch/1/1/20": (
        "f7e5d950140210a99407a61c0aaeeeb365ba02e87f1080bb80821b7c29115b07",
        "ab420e300650c908d6ea9cc62ab6d276ad2ba7a92d6ee85f5dace982086fb499"),
    "fold-batch/1/1/21": (
        "b14694013479726b1fb8c965be115a418af68d7eea67c7ad55c48af6234d99ab",
        "f89e4c7c0319b49aa2f772623a61795375ac96b537b309c2cdc11ab96ac4c271"),
    "fold-batch/1/1/22": (
        "8fbc39409d289c8c50ff0570e1087494c6a3fd4b9aa2f686af03fbdbdee74571",
        "19b8168099bff644798fdc7b9ed14f0dcb3a795c4f408762a6daa6d78b9b85e2"),
    "fold-batch/1/1/23": (
        "a72e488e753f3c3f9d27084a23b2d3d6f6f69f0ccb4d6dff53a9749fddca245c",
        "5222df7359ec08d28394c059dd2f929514b3ead4ace8075386dd2d77a2e043b8"),
    "fold-batch/2/0/0": (
        "64ce4b7f7442e63f7b4c080725c6cc16b4d402cfe742bd9c5b4dc8351c90e180",
        "05b26e28c8cb93d63425187bc1a839ef9518bad7649b06f3acd1474246dfd3d5"),
    "fold-batch/2/0/1": (
        "9ac4763ae6654bbf9a0859617053cf7461e466ab3ed65085464fa39c49aff2af",
        "7f799afdd75164dc3273983e725495c26b5e220c7c29fecd5746fe7627431b0e"),
    "fold-batch/2/0/2": (
        "cd6726f58a612ebc3a060621cbe148e8f1b656e89124c99caf166033190939dc",
        "a6c85fc09d0434b310666bd428a352b0ce2be0c314789bda7a1e77eb50ec9982"),
    "fold-batch/2/0/3": (
        "98d881faf459e7f799ceb37cfe07af97e4434e31b63b126bbf45305bf285add0",
        "e355913df35854a78234107806c65c6e29e91a8152a28228e102840ce14d3072"),
    "fold-batch/2/0/4": (
        "515b28c5fe89038602926df10e586888a1c4e32eabce5aa91fae8c0d61bb7e88",
        "5b6045c5edf65853feeb596c81d1f09c9c45592ab5287e18f28cf19980661eb8"),
    "fold-batch/2/0/5": (
        "cb1d706b4272569af4c304c4fdad260a2e241bdf7cae4f8de1d77562a27382c0",
        "f6ed3bf514b5733a2aee15b585056a4f23e2fbf9ab7d4f7e09b421f4bf020e7d"),
    "fold-batch/2/0/6": (
        "dc9688c968c707baddd7f73b4757aea4acd8943bcdc427d1553505265c28341c",
        "8c4582bf57eeff1ade8617b2b3242ae9eb0699ef4cbc28d57624202e8686965a"),
    "fold-batch/2/0/7": (
        "3239e187cfd585f91c404b1c2a5e0cbbea8cfdbc5dbe354a189ff567b129c599",
        "ce273b812adee82adc1f24b8ee80de59989958011474a36e1215b36de608f942"),
    "fold-batch/2/0/8": (
        "6340092273124aa735a2a575b4f29899148b09337fd37608824258e67f057d64",
        "2404a2650816ba04379446f532949777297971e9194e53c1dc323cebced3b874"),
    "fold-batch/2/0/9": (
        "406b66e60f68779b6da2532c913e66132b93cb33aae4c9069deffac4a1e7686b",
        "0a0b2d06f9b1f3ffe6b0a3d3052cc0cab3db6f908000eaf673a4d47351c871dc"),
    "fold-batch/2/0/10": (
        "211264252bb156936ef482a8a97f5c64522d48433d790db385e86bc0fb088b48",
        "e5ac7ba9c4333f4079dc521161ce35d610b4619570a3817a5af8d320ecf77e65"),
    "fold-batch/2/0/11": (
        "f57d5f26c151b86aafec215529bf38575ce32f1121526d3c5e0acb4072cf0cb1",
        "75f2602cc88b950498e5e7213977c82d32754d611dfcdb3561b28569f988c43f"),
    "fold-batch/2/0/12": (
        "e193bd3f95d3219afc74f15a5ab17b1c71d9aedd6ca148158ec07417f38934f2",
        "1b5cc8a8632d3ce35370f6534ab7bcebc5e346d9edd7d15dcb57220deb274707"),
    "fold-batch/2/0/13": (
        "1f292b37868b057af5c6c732320f63dd254c4d23b579847495282c591bee4dbe",
        "a96ef395c5119bd88ca74092c4ca0622c61b60b0032991280ec2e800be09ad0b"),
    "fold-batch/2/0/14": (
        "3b6a2a6f136ab63a1f0ea67aaed2cb01e7b56901f083c29dab922467f73b56e4",
        "4b76296f9f6ef0ff40f8a27cd93ec1992823ee33ca39c21a16a1504e440f36d3"),
    "fold-batch/2/0/15": (
        "6f06b0389bbe3a25acc5052f0183f7c3cd038f4c96bbe291125f83d03bf77fe7",
        "f5a2509b209e4bd4a81b44bd4c9a6262cf1080b93ed2879da571f2c666de9f69"),
    "fold-batch/2/0/16": (
        "2f28f9de0b6c8a76d4772c81c6959a8b035b0dbd234efa9f0f8c39c4ebaf256a",
        "02334ce37794861c092114f1171fd81854531ffbc46f2166ce50a39cc7021e19"),
    "fold-batch/2/0/17": (
        "9e5fad5299e3f90635ed418d16a4e43451b6966514bceefe0f2f10d9bad87564",
        "1048053e2a9f8b3184777d58a7db896a2fd25e1e18677976730b383618a199b0"),
    "fold-batch/2/0/18": (
        "7719fc7d7edb7fc8be4ed4bd5819204a3aefc1001556a4a71a2c5a57d4bff5f8",
        "b97cb078045d52560a45d356ec9a6a18b1d93d407fdff13420595fa46aac309f"),
    "fold-batch/2/0/19": (
        "0bd40ca6cc93af737005151bdb28d5b45453f682fda093d1902321b54e717dc6",
        "9c5127f161d46c601961b7cc20d319e77456696bcaeb77c8067bddcf68458a03"),
    "fold-batch/2/0/20": (
        "8a251a90877afa4db279f2683b196758941c3452fc956737d840bd0dce2707b5",
        "9cd5cf9edf5c2ca6127507a5b515a4a9d845b07b799c8bc2be3e047c6006c869"),
    "fold-batch/2/0/21": (
        "8fff6d07f1d8199d1a4c8f89270be96ef1faf6640bb71b9f2c2b9e2979e6bb23",
        "f53b3fb798175a9e3e89230378d0d535fa6e798eb76960b430d73ddf988cbe4b"),
    "fold-batch/2/0/22": (
        "6f30b70e4126422113a3458d11906984c892f0c7e0653c1c9c866bfa2b3331a8",
        "39873fd850569cfc9a7ca8104f67f60c24b75d6c04575b445d24e12fc3c03530"),
    "fold-batch/2/0/23": (
        "6e4e6e0ca205c17e904391e158f8f8eee60acbc5bed51444bca557fce69f3a1a",
        "07f6188c8a3d7509a8899bb9512ba932261e70e4229732bb3196c28671653d31"),
    "fold-batch/2/1/0": (
        "96b833e193789e996a59dc815b01b691a7725854a574315c4e2a980949676d88",
        "480aefb4421e64098ba8389de3b8c5c009d622ff920d4244dd750e863f820505"),
    "fold-batch/2/1/1": (
        "0819de6dc53b8412e5e8cee59912683301c8707667d30e0e45a0ea8b0e1a01f7",
        "ad007f5dfa44d6f0abdd4e62818c8d677e4f049a9e9a5a8f1a6be06d475d01cf"),
    "fold-batch/2/1/2": (
        "14af9fdbdadbb9740fbf5370970b9aeb18da4534cc91ac83575af88d0a38b253",
        "8332d45b65a68a5bd3101c0f502c749549a1cd0f5b26819f8c9ba75844b24f35"),
    "fold-batch/2/1/3": (
        "292967e06fab4485a676f1e70cb8045f49135729cf6f1f952831275ae2f11f50",
        "cc8814a7c0ecf05d39c6d4699bdbb21dafe1bc34c703a6ab139b210667f1a3ad"),
    "fold-batch/2/1/4": (
        "9ef189d5673f87f0cab9f8aed53c8181e48c67035c85da0483d116ca966690d9",
        "2f44a090997199fa9ea0e4a86eddfc2c251217654c9fea6f1cb1148ccb271e13"),
    "fold-batch/2/1/5": (
        "81e66a444f9bd29ed6efed3de5f22c659150f25777fa493bc3bc9c4a49be0b56",
        "00e7877d878ff1d2f32b03c5811b0bdcf51f6041f0d89e91b7a7bca6252178b1"),
    "fold-batch/2/1/6": (
        "b330cc1e4e8f219d11837b289c98a656aedb2e12b86ad210d03f1451c5120f42",
        "02da35e026d55b78798b9a34d82bdb5648f87345c0503e59051c88ea22f17290"),
    "fold-batch/2/1/7": (
        "3c7a285cfee8087da2469c42eeead931179be8ef4eb833876445945119a64816",
        "b51513856311f214b8ff7fd41b7d0f45c7ccfcc6c440acb2f4369b2dbf314a2a"),
    "fold-batch/2/1/8": (
        "4300b66e8c2c3ce446422956ea46a5798175447c61ef76ec3c1e2ab1632d1861",
        "1eaf5c33131cb1f7389ce0ed51e716fffe004db6b49d97eb4c3e89fb708ccc24"),
    "fold-batch/2/1/9": (
        "28ee948348824c073ed284279dca6b332789db50a681da726d67fa62cb40cc9f",
        "b84780887746516ce483dca11a7b98d5d47251d26c4931ab6d59dfafec2b92bc"),
    "fold-batch/2/1/10": (
        "a86eaadf0fbacbd1f4f280bea5628eccbbde4d1b843b525d07582e9625afd328",
        "fff45269b566533580e484e9661e440ada2c7230d40a90f7920a7b83784c2648"),
    "fold-batch/2/1/11": (
        "fc86b47b3798d78312e4302bac2fbbda25aab7dc7d9996b991653e26f33832b9",
        "903f860c1bc4e931abc72133737879506a249fbd1c2f5501c8fb44e256a8c2de"),
    "fold-batch/2/1/12": (
        "4f7f60715926601ac7924f248b3e37014c31073602372566e5369fef5bf721b2",
        "3e0edac386e44f4dc21aa075f1e4f4e2b59065f31718fef898aa1e1da55d09f5"),
    "fold-batch/2/1/13": (
        "560b08890a5e549382e00b8f334903ce6a8c9599ba0a4c4b506249aa260d6fa4",
        "490e518cabed0931cbe87ab4a538e3680a9e58f08595641edfa440f07374de3b"),
    "fold-batch/2/1/14": (
        "a1de3222962b916e10cf3f31008c81d3c2c617a802d64ad52b115d67cfe8f354",
        "3dd4d9719dfce3a50fa277450d587828c987be7ad9a542d3a5d7755db991ce5e"),
    "fold-batch/2/1/15": (
        "9e3a44b25a089ce21893b7746c5f9f458bbcc36469523ceec7e47a58e9bcaf23",
        "3390892c8ab61663b4e6cd68e6f70a4e479ab8ebd6df8a54938d8779813f5cca"),
    "fold-batch/2/1/16": (
        "090ee57d182d770b020eb9d29ed43ffd8d2d1c347d68d8edac650d13534713d6",
        "89e1fce8ba5cecb15241d37392495e69045d139c4bcdac7b350babc3d787f617"),
    "fold-batch/2/1/17": (
        "d044540a16bdc13ae639b18955c2680e5245f9a9a55e7fae304da9f01dc3e1a0",
        "308cc451e3614ffa898f130eb0909c61fdda0a26d50613869fd3822611afe207"),
    "fold-batch/2/1/18": (
        "7ab219b801327472faf695be7529f04fc62a3baba12db815878fd0798a7df546",
        "860ee950592f0877a38fa740e732563b9bea6da085f291269d69d930b066b674"),
    "fold-batch/2/1/19": (
        "d03cb23d23e0cb63baab23510b2dfba3eff59c8e6519a873440eb1e4dcffd554",
        "d3e593860249520585922a51a5ed1e8d68044e8dddc6b79035dcf1dfa5eb19cf"),
    "fold-batch/2/1/20": (
        "3bc175317a15b7b92c610e2c14eaaaf778a2fded7e3a606b5166dfbf4e3b916d",
        "6527af51cf586ca8aa1255f9d9991a6ec3494b0abb9685eaa9d027f21669380f"),
    "fold-batch/2/1/21": (
        "325eb037c7b753cf93072d1075200a4454ccb1c4b8265d22e9e72e763fe1f0fa",
        "c0873b73731890d4ffb55de92f077e5bca35000536d811a6c53cc447a5315181"),
    "fold-batch/2/1/22": (
        "9a0ffc2d44710ea75078cf637142728981a4fdf1bfee510abdae5a1cfc8436af",
        "6fac99eb93c859ded27f68c1e6218b6dcc73204f3d86df030cea1868fab25bbc"),
    "fold-batch/2/1/23": (
        "073912d2809c1901f4cd2a9b2f10d97c03dd187f098f590582083457fc593381",
        "037ccb8ae33de226c7c81a61a785b9e383390de78ec6e99f6cac55dbca039cfb"),
    "cloud/2/0.25": (
        "460b8b40a33b78cb5be0d4d9b608573770815a45d5d9ee55087d56d9e74c17d3",
        "8f49b9b19e88e94bd55dc28476ebf874e951a8e46f84f619aa872a0978cec49c"),
    "cloud/2/0.09": (
        "28d193923ce7f48173786a8d4ec506ed783b7e72f9db670c37050246ebc7ed3b",
        "acfab48d228f431b4f163c6fe2c656045eaa6c084a6a2229d5dbef74afbf58fc"),
    "cloud/2/0.04": (
        "50c850c2a629c737f031e1de86220f712905aa883b1a561cb77e72f0dd450977",
        "6ed4c2d6367edb099866dd5f7f760ff9e6a169389af61a6ccaeea1e58476b3d9"),
    "cloud/3/0.25": (
        "fdd68594dab045a4f0878f2bb66a0732187e836f10612eb5999d52b9bf0b5e1e",
        "017d8d7d563d3b47fa7e127510f28ad1d517ecb3651de4eb4dd597d5b2ff422d"),
    "cloud/3/0.09": (
        "d76b5f36f0a8333bbe547543a8bd4dffcf21eb7c68f2c8f6c8a89e638aaf050b",
        "85a5422970467056da05eae21150f29ff26fbccb5a1d26a41b93ddd2e81f8bba"),
    "cloud/3/0.04": (
        "ec015d73f356e24bbd11fc9cc52887bb2245a76bce41272c0f32a1e6cfc35ebb",
        "2227b032d7af0fcaac5771d1bf6c9014e9c0c41a7194735150fadc67274b40f6"),
    "cloud/5/0.25": (
        "09fd5d6a6d7e69ec87ac5dfb0514f7ba4306133fe7d89e7e1f780b6620a6204b",
        "90c2b9d9e56bff7c83735124e68397ea654e79559288b7792ab039695927c50f"),
    "cloud/5/0.09": (
        "04cc3041c0ab739b299f296990edb77e588d358998859c5ce0c8153258cd334c",
        "a35b8dcfbfc11e5e14af79201fe122906ada99d359f1055b7e0144291d78c37d"),
    "cloud/5/0.04": (
        "d6447070335e976abc9d595b9861abb6028bfe4237e3c7384348e564b3a3a7da",
        "51f9599d21512bd7dab514d94d3498605dc03932307413c42c6950d187765de0"),
    "cloud/8/0.25": (
        "d14289ed917cac415f53b17a7f54ac7db30626cedf610d53657e8c03cf453f85",
        "fc9cda7165f7c5793a2679dfd8509bf6d7e4a6c2c177dc0e9da1a931ba9b90e3"),
    "cloud/8/0.09": (
        "3a77d62121f40d9ad9bb6073807e3a03bf3b6fd2fbfccca41ff5ff53e211e8e2",
        "de055fbfaff3ca0d2f4b197c4e8dc1271964584abbd93306ecc3c4da45c94ede"),
    "cloud/8/0.04": (
        "0bd4c440919c39b031890d9b84a4b278077342221f1d39ac38e82ac99dfb8417",
        "c5684e7bfc432fc1e48e56cbd9e9447201a1701db5e478c943e691c56120a776"),
    "ray": (
        "4ea8056f4978ef0328e9a35756c0488ea4253608947bce76d52775dfa55dced1",
        "56b176199767c3a809d1cd731b369455abcb53f0ad67347693f1ea8ce0683ecd"),
    "lattice": (
        "1d9151a5826fa6b94a2de11dfd5265560a7eba42ad656dccbcd39616127ff86d",
        "83cb579b97a6774152417364d62d59d7e336be2af3e7db6fa15425a02f439177"),
    "two-points": (
        "27375e83a746c077fb8d89bdb71b1f2292527302665646e04cba392deeed3086",
        "69e711cd83f5e4b7c71b03d44a81a84adaf0567a118f4a84001957e404bf8979"),
}


# --- the other methods, and slt verify ---------------------------------------


def method_cases():
    """(id, method, points, eps) of every pinned pyramid and core2d build.

    The root is point 0.  pyramid-d4 is perfbench's instance: the grid
    ``perfbench/worker.py`` makes at d=4, eps 0.09.
    """
    for eps in (0.25, 0.09, 0.04):
        yield f"pyramid/3/64/{eps}", "pyramid", pyramid_points(3, 64, eps), eps
    m = math.ceil(GridSpec.regime_min(4, 0.09) ** (1.0 / 3.0))
    yield "pyramid-d4", "pyramid", pyramid_points(4, m**3, 0.09), 0.09
    for eps, n in itertools.product((0.25, 0.09, 0.04, 0.01), (4, 12, 64)):
        yield f"core2d/{eps}/{n}", "core2d", core2d_points(eps, n), eps


def verify_hash(points, root, eps, tree_path, tmp_path) -> str:
    """sha256 of the report ``slt verify`` writes for the tree file against the points."""
    pts, out = tmp_path / "points.json", tmp_path / "verify.json"
    write_points(pts, points, root)
    assert run_cli(["verify", "--input", str(pts), "--tree", str(tree_path),
                    "--eps", repr(eps), "--output", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_method_manifest_covers_every_case():
    assert [c[0] for c in method_cases()] == list(METHOD_PINS)


@pytest.mark.parametrize("case", list(method_cases()), ids=lambda c: c[0])
def test_method_build_and_verify_are_byte_identical_to_their_pins(case, tmp_path):
    name, method, points, eps = case
    assemble = assemble_pyramid if method == "pyramid" else assemble_core2d
    graph, tree, report = assemble(PointCloud(points, 0), eps)
    path = tmp_path / "tree.json"
    write_tree(path, graph, tree)
    got = (hashlib.sha256(path.read_bytes()).hexdigest(),
           hashlib.sha256(canonical_dumps(report.as_dict()).encode()).hexdigest(),
           verify_hash(points, 0, eps, path, tmp_path))
    assert got == METHOD_PINS[name]


#: The folding cases whose ``slt verify`` report is pinned as well.
VERIFY_CASES = ("fold-d8/1/0", "fold-d8/1/1", "fold-d8/2/0", "fold-d8/2/1", "fold-d8/3/0",
                "fold-d8/3/1", "ray", "lattice", "two-points")


def test_verify_manifest_covers_every_case():
    assert list(VERIFY_CASES) == list(VERIFY_PINS)


@pytest.mark.parametrize("name", VERIFY_CASES)
def test_verify_report_is_byte_identical_to_its_pin(name, tmp_path):
    _, points, root, eps = next(c for c in cases() if c[0] == name)
    path = tmp_path / "tree.json"
    hashes(points, root, eps, path)
    assert verify_hash(points, root, eps, path, tmp_path) == VERIFY_PINS[name]


# id: (tree file sha256, report sha256, slt verify report sha256)
METHOD_PINS = {
    "pyramid/3/64/0.25": (
        "b08624fbe64dd215d689773db333b3033cedae8d4f4db6b4d1043995c7304b32",
        "626297685be5542e263dce9a22ab6b60f5d58515435193ffc2d35890859a3ac2",
        "f2dbdcd414af1ca376c5bd2a43f9e6280a1f4acfd4bb877f2d2b3cee1c214ff7"),
    "pyramid/3/64/0.09": (
        "2edf822ea87ad922e606aacaed9d39816b5cfb980928c816d30d531f181f4a69",
        "beb3c3662235902fda4af0c2ea2d8c27cb7769bce83e4f314daf3f44b14a7abc",
        "7cc9cacb2060be14048f27dde87aeb866737a7c80a032f8ae33e79e25d387fa8"),
    "pyramid/3/64/0.04": (
        "191b17976385864c334de5763a27757001b167bd41e6e82691d4bde29e1f145b",
        "82b1a8c6de25e5e9686e1f31d9b5f9602f8a457f32d67980683158e72e086787",
        "b04d0730bcd03cf5d9fbbb67504380a33608d736ddad0741c3e92c4398757ae9"),
    "pyramid-d4": (
        "7726e9d28955fd581f95737adb84aae0877e58b11298f8991f8b48b1d4ed44c4",
        "90c4c0ae57d31e23f029c876a18f4e20c239a9a8d9098b27c12c71f99fd36dde",
        "5be03868f6fb9a4f519cf1109942eead25e9ae72d105943c2c6f591f1be30462"),
    "core2d/0.25/4": (
        "e95363e0d3720b1e9bd5ead2a65a2d81838ddba02f050517b048841cbb87619d",
        "7ac0caf2df1e12599404293b572b8b24ebefa36bebb456b51c97fcbf9d8c1afa",
        "e55c90c59fe512bf496c4690f66a6fd206d4fde5f1f922af10403b220eff75ad"),
    "core2d/0.25/12": (
        "cb6f1786282fc13d949e2c0370a75ea3bb34f2143a277519b906fb6a23fa594d",
        "f8c884aad2f38c63d68af6395335f9309c0d71dc6d4f20f020534b0d05fb4003",
        "0f5d443994ca2bd30f9f8bb02c1df8a6927fc89901ce4dbb30b7da1640426bcb"),
    "core2d/0.25/64": (
        "5d1363e251a1aa8b0934b3daa55309ec55b785e59821cce80baeda0d44495656",
        "3876eee5c5ac346552fed64c63780b122d890e2f166ec0d96dac21f40a67e13e",
        "5c7a8a2ea02e0c3f2be5486d3d95d98c5a1629a022164f17c729859344532d06"),
    "core2d/0.09/4": (
        "466bffe1c9a2315f52ee37878a72a73dbb08866afd57c5c2a15319bd6451dfd2",
        "065d915414fc7e7c26ca1966b2b813613de96571d0b1de61f8544cc57781aa2d",
        "c156085486d66cdba17f2e242b35451a2a787a9cc2f8def3524e58b9fffede42"),
    "core2d/0.09/12": (
        "e67edbf2251581241ef6170742dc5f8e4476bccdc31f5e22754fa9b260eb40d9",
        "d6aa2f96ce9f980cb4f2fbd5cde274016b410d7857f59990c8018bc692524ca5",
        "d95d35fa33d405061874203bfd5f13ed7e9a3ebd3f4bcda311b1b399c2302e20"),
    "core2d/0.09/64": (
        "b7a344de7149239a4d2bc9f60fa0daf748c34b48d765e430a957eb30da22bfd8",
        "dc17e41e043bbff1decf6bc0c821f546aca6752b6ae7b7c08f64a1d8ee6d3f1f",
        "35987957e070acfa56a2e6fed7984799b5154410cc2f5c8957608c498f4ed9d9"),
    "core2d/0.04/4": (
        "aec888e3bb226e8e360d0218c84a068b9ab417db0db34efc4f0d585ff339bf78",
        "6cd91b16ce8794793b7503dce8aedd44ed20bbf6ddc84e956d99c67d300d4dc2",
        "cf7ce022857e8f5877c4b6e58bf5ecc5174d2ae0359a27a609a9d71719b03b87"),
    "core2d/0.04/12": (
        "cceb266c37735e3572ea88374df2d92d0cf2db9c305acfff79a9bd2a7adbb040",
        "a72706eff4dfa592c948e81321c8dcd218a9daee5ad9155a1e063b255bdf194e",
        "af5c253ad1d81ac15c882b63eeff61fe535b27eb5bcf7cb051a59366534bb490"),
    "core2d/0.04/64": (
        "d65310eb40c8012487e6bd62c253162e7a18233b80c3c52388cb13689d75cd3d",
        "077fdd4ba81eb7ce5bdfb0471110803882a7b81944011052af28640f323de890",
        "d309fa6852099f81da4d4372770fb0cd38129ace6513eb0e895a08ce5d041e0c"),
    "core2d/0.01/4": (
        "75f63be235b561d7bec92692ca0440c854b78c7d4e1d1d66159c3afa6b60e425",
        "867902180d06ddacb521a9f2f68527767bc18e15e14d45583d34b85dcf691d9b",
        "40b1b40e95a79faafbce85d28570ab0743b18f589ae7850a96a729701f8fb71e"),
    "core2d/0.01/12": (
        "6c40068936b9e16c3a1121dd02a21c7e52e5055cbeef992688d5072c40303a34",
        "86a3a8d5960fcc1a8ce1aad253f3a54fa503090ba2fa62ad5a0965a261b4ebf3",
        "b5bade39a6648e6ac2310d41c0c99695fa0ce6393c17acfaca28beda2ddc4f58"),
    "core2d/0.01/64": (
        "915967830a0be25334a757c6e9f5d3bf3c5e31e7f5cbe85355331bac6ba0f9d3",
        "5541629aa328413c75b65163b0aed0456ea0745967b19f8db29ad1645a3e180e",
        "e35523e1fced56ad8ef9fa09df0c13d1dd8c38c9334a6f47acf934f885135805"),
}

# id: sha256 of the slt verify report of the case's tree file
VERIFY_PINS = {
    "fold-d8/1/0": "81f946f7eb4f7bada327e2809a4de4b5488f1e2964f4ce4dc4ee6a0ed4477140",
    "fold-d8/1/1": "ed90086a0713abbb9aea984d93732ef456ec2061c081c671decc44884f26c2e0",
    "fold-d8/2/0": "c44cf12146699fad67f7a5e3e810f3975addc4a845ba1ed21d0177ddcb14319e",
    "fold-d8/2/1": "12da350bbe7aa9775b6fdd84132b14e4985c2b8f01cd102d6f082a29dcf58aab",
    "fold-d8/3/0": "a88c40a50a031d093ecd5be20c8233872e94693a078d51fde03a808a65242809",
    "fold-d8/3/1": "30238b5fc56718b9675611260ebe103c192173683ff40c2a28d5735f25c2310f",
    "ray": "fd82768731ad075ea19fd0741e2c77117cfca9e900f33bd4ee165a01034e45bb",
    "lattice": "3c7013d0a4357dbbd6273697d5501e1845bd0c79a766bdcaa9789a7ff84e1207",
    "two-points": "e2e2f685a1a55653f7df80440279610069bceae6e5ac4b95feff817858991995",
}
