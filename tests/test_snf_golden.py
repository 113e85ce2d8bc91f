"""Golden digests of the pure SNF kernel.

``smith_with_transforms`` must return bit-identical (u, d, v, uinv,
vinv) whatever is done to speed it up: canonical coordinates, and with
them presentation-dependent report fields such as ``d2_images``, depend
on the exact transforms, not only on the diagonal.  The digests below
were frozen from the dense reference loops; a change to pivoting, to the
order of row and column operations, or to any transform entry shows up
here as a mismatch.

Each case pins two SHA-256 digests: one of the input matrix (so a change
in how the inputs are built is reported as such) and one of the kernel
output.
"""

import hashlib
import random

from leray._kernel import pure
from leray.cohomology import build
from leray.exactlinalg import IntMatrix
from leray.local_systems import from_monodromy
from leray.simplicial import genus_surface, torus2


def _sha(obj):
    return hashlib.sha256(repr(obj).encode("ascii")).hexdigest()[:32]


def _nilpotent(rng, m):
    return IntMatrix([[rng.randint(-2, 2) if j > i else 0 for j in range(m)]
                      for i in range(m)])


def _unipotent_family(rng, m, count):
    """``count`` commuting unipotents I + a N + b N^2 for one seeded N."""
    n = _nilpotent(rng, m)
    n2 = n * n
    ident = IntMatrix.identity(m)
    return [ident + n * rng.randint(-3, 3) + n2 * rng.randint(-1, 1)
            for _ in range(count)]


def _coboundary_cases():
    bases = [("torus2", torus2(), 2), ("genus2", genus_surface(2), 4)]
    for label, x, loops in bases:
        for m, seed in ((2, 11), (6, 12)):
            rng = random.Random("%s:%d:%d" % (label, m, seed))
            system = from_monodromy(x, _unipotent_family(rng, m, loops))
            for convention in ("e1", "classical"):
                c = build(x, system, convention)
                for p in range(x.dimension):
                    d = c.differential(p)
                    yield ("%s-rank%d-%s-d%d" % (label, m, convention, p),
                           [list(row) for row in d.rows()], d.ncols)


def _sparse_random_cases():
    rng = random.Random(20081001)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (1, 7), (7, 1), (6, 6),
              (9, 4), (4, 9), (12, 12), (15, 10), (10, 15)]
    for r, c in shapes:
        for density, lo, hi in ((0.1, -3, 3), (0.25, -9, 9), (0.15, -40, 40)):
            a = [[rng.randint(lo, hi) if rng.random() < density else 0
                  for _ in range(c)] for _ in range(r)]
            # an all-zero row and column, where the shape has room
            if r > 2 and c > 2:
                a[r // 2] = [0] * c
                for row in a:
                    row[c // 3] = 0
            yield ("sparse-%dx%d-%g" % (r, c, density), a, c)
    # a few entries of size about 10^30 in an otherwise sparse block
    a = [[0] * 8 for _ in range(8)]
    for _ in range(14):
        a[rng.randrange(8)][rng.randrange(8)] = rng.randint(-10 ** 30, 10 ** 30)
    yield ("sparse-8x8-big", a, 8)


def digests():
    """{case name: (input digest, output digest)} for every case."""
    out = {}
    for name, a, ncols in [*_coboundary_cases(), *_sparse_random_cases()]:
        result = pure.smith_with_transforms(a, len(a), ncols)
        out[name] = (_sha(a), _sha(result))
    return out


GOLDEN = {
    'genus2-rank2-classical-d0': ('c5ac183137dad0173c67bd587ce07a1d',
         '3a71a195896459389e88b5ab720eb003'),
    'genus2-rank2-classical-d1': ('7ff763b1ea32edb2fa7fc7d10885284c',
         '3b6f6e8d00fd83a6930279bb5b1fe46d'),
    'genus2-rank2-e1-d0': ('eb831327376bd7153960848ebafa4ab3',
         '6dd07baed5ec68cfcd70ee0d8628e7e9'),
    'genus2-rank2-e1-d1': ('7ff763b1ea32edb2fa7fc7d10885284c',
         '3b6f6e8d00fd83a6930279bb5b1fe46d'),
    'genus2-rank6-classical-d0': ('8d7e92f323531ec31739b1416e2fc721',
         '3e616dde8b586e6f78b09a11e39d1ab4'),
    'genus2-rank6-classical-d1': ('5692dbfe4916baeeae0373bbd96895a7',
         '9de7c61b19fa2e0cf0139cd583c2559e'),
    'genus2-rank6-e1-d0': ('05898e4ce52e13ebde52eca22f1f41c3',
         'a5efaa137fdc819fbf401b7cd2c03edf'),
    'genus2-rank6-e1-d1': ('5692dbfe4916baeeae0373bbd96895a7',
         '9de7c61b19fa2e0cf0139cd583c2559e'),
    'sparse-0x0-0.1': ('4f53cda18c2baa0c0354bb5f9a3ecbe5',
         '1fa81a4fc056eef8aa90d709f6063b6b'),
    'sparse-0x0-0.15': ('4f53cda18c2baa0c0354bb5f9a3ecbe5',
         '1fa81a4fc056eef8aa90d709f6063b6b'),
    'sparse-0x0-0.25': ('4f53cda18c2baa0c0354bb5f9a3ecbe5',
         '1fa81a4fc056eef8aa90d709f6063b6b'),
    'sparse-0x5-0.1': ('4f53cda18c2baa0c0354bb5f9a3ecbe5',
         '34aff7c5215fd085cec9f1afcabeef93'),
    'sparse-0x5-0.15': ('4f53cda18c2baa0c0354bb5f9a3ecbe5',
         '34aff7c5215fd085cec9f1afcabeef93'),
    'sparse-0x5-0.25': ('4f53cda18c2baa0c0354bb5f9a3ecbe5',
         '34aff7c5215fd085cec9f1afcabeef93'),
    'sparse-10x15-0.1': ('4c703fb54523924f27f2f84880f2f54c',
         '17c446ef31ff90b82972ee9102d5ec75'),
    'sparse-10x15-0.15': ('14a0941a89eb5a61f7b4243659907dde',
         '9dfbaee9bf08711b6964e9f85d1a09eb'),
    'sparse-10x15-0.25': ('90378fb9a187ef0933a6bc756a3c3f3c',
         '34ccff951504620122fbb3e91e738e1b'),
    'sparse-12x12-0.1': ('b59ad74e96c8e099beeb9e71fd1577ce',
         'a0d07b461be5bf28d1cdb420237eeb48'),
    'sparse-12x12-0.15': ('8305aa682a209e67390498b8024836e9',
         '712e3e2b24f097a27e2c72fe301873a0'),
    'sparse-12x12-0.25': ('233304d5b51ad5cf244ba6731b9c0323',
         '2ef0c8c567c4193cb66a6c94a44065ee'),
    'sparse-15x10-0.1': ('719c2869eb9e91bd452da585c20a944f',
         '9c9eadbd117fc829f46fcf2e94641706'),
    'sparse-15x10-0.15': ('5179a770566b2a29ce9aea5aca3f12c9',
         '288b2aa53c82966bc153732ae65f9e3c'),
    'sparse-15x10-0.25': ('b19817c7e455da9edec1464c0dfcaf3e',
         'a8f706518054c3d83153111387873b3b'),
    'sparse-1x1-0.1': ('db407f11d7ede59abaab0e98e097ff2d',
         '940bbdb1bcdeb6fc0097195e6e9d6fb8'),
    'sparse-1x1-0.15': ('db407f11d7ede59abaab0e98e097ff2d',
         '940bbdb1bcdeb6fc0097195e6e9d6fb8'),
    'sparse-1x1-0.25': ('db407f11d7ede59abaab0e98e097ff2d',
         '940bbdb1bcdeb6fc0097195e6e9d6fb8'),
    'sparse-1x7-0.1': ('36e6cd93c3454652341f90f62579190a',
         'c26105b4f661f1f4a88211c3ee312991'),
    'sparse-1x7-0.15': ('54455fc0ecd34241affedf8c8c5417a4',
         'a293aa5ef1ed4a968eb425a6e06b1af3'),
    'sparse-1x7-0.25': ('9a46d52302bfaaeb3dd0195eccdfe170',
         '047761551db165a60cea573d6afe4204'),
    'sparse-4x9-0.1': ('48f9031736b24076604d068296ed75c7',
         '348a60179747c263b70e91cd18000bf3'),
    'sparse-4x9-0.15': ('9429a917cfca0f010fb9a08de2b64ef1',
         '57216f11655a97192d66e781ee788934'),
    'sparse-4x9-0.25': ('65bb47e98a71e613c040c113411b8ff9',
         '6169e695d31725cc05e6962998699063'),
    'sparse-5x0-0.1': ('217dfe378d888901dd712599af59007b',
         '2c0ab3c01b4dc6b4b5ab038f1488b0fd'),
    'sparse-5x0-0.15': ('217dfe378d888901dd712599af59007b',
         '2c0ab3c01b4dc6b4b5ab038f1488b0fd'),
    'sparse-5x0-0.25': ('217dfe378d888901dd712599af59007b',
         '2c0ab3c01b4dc6b4b5ab038f1488b0fd'),
    'sparse-6x6-0.1': ('003da71b4cb888c7cad2efb83f779970',
         'b70e6f40f02e1bc1ea6be39423a76c70'),
    'sparse-6x6-0.15': ('508ddb4736c1ecfef6ae24eb3b58f968',
         'f7603aa45eceea817a4aa7a2beba2db5'),
    'sparse-6x6-0.25': ('4d5f38c945b8612346ffa5fccf9bfe62',
         'f136d77e16a1bc116712305fa0cedaff'),
    'sparse-7x1-0.1': ('1a99c8196e3b42189fdd8a430ec79fc2',
         '98bc13dbbdcffb426d18c6982bbabb93'),
    'sparse-7x1-0.15': ('ccc5a84566bcd2d4d46f1496e48cc8cd',
         '60720329fa5543171d26d4215b1de43a'),
    'sparse-7x1-0.25': ('7231c6b8800ff0b116383f9f398c596f',
         'b6fe54c65f9015d352e199d69e8309af'),
    'sparse-8x8-big': ('f4a02a4373f5ca01d9b471c6ef778ca6',
         '6a51fe53fe306e10e62bb3ddb1c554d3'),
    'sparse-9x4-0.1': ('8a299a2ff64795a4dec0c5c1b5a81cea',
         '90bf1bf7086b0682bcd39bb184a51ba9'),
    'sparse-9x4-0.15': ('b9d9f6de9eedfdf108c0ec9340186387',
         '961b03808a9846b7dad00cce5838f17a'),
    'sparse-9x4-0.25': ('b093f4d1605135680e3db97f6e941977',
         'e49b6318aa4e02824df5150f5fb668fa'),
    'torus2-rank2-classical-d0': ('20c2e609010f03b10e0d9fc81bad6f7f',
         'f744caf3944dda17713dd407bbc42a11'),
    'torus2-rank2-classical-d1': ('98c2f3a21692d990f516f441a4fbf3d7',
         '4918096f8ba9bc2182ed436acb6b6704'),
    'torus2-rank2-e1-d0': ('e14e6af3b59775cf1c7b670c5ad1a716',
         '679f5fdfb5bca8e3ddeaea0843926d3e'),
    'torus2-rank2-e1-d1': ('98c2f3a21692d990f516f441a4fbf3d7',
         '4918096f8ba9bc2182ed436acb6b6704'),
    'torus2-rank6-classical-d0': ('3f9ddc8b68b3603c6f132a902ebf7432',
         'f61d11381c58b2e5311f9e039f6ee4fb'),
    'torus2-rank6-classical-d1': ('4adf5bb76b66c1a4f21a7f1eabe47438',
         'bdfe6830dd9bbc57aa38a1b213ff20eb'),
    'torus2-rank6-e1-d0': ('18302252d676f661d8710c8718a4dd13',
         '1705a69eb15a355239cd9efa58def06c'),
    'torus2-rank6-e1-d1': ('4adf5bb76b66c1a4f21a7f1eabe47438',
         'bdfe6830dd9bbc57aa38a1b213ff20eb'),
}


def test_snf_transforms_bit_identical():
    got = digests()
    assert sorted(got) == sorted(GOLDEN)
    moved = [n for n in sorted(GOLDEN) if got[n][0] != GOLDEN[n][0]]
    assert not moved, "inputs changed, digests not comparable: %s" % moved
    changed = [n for n in sorted(GOLDEN) if got[n][1] != GOLDEN[n][1]]
    assert not changed, "SNF transforms changed: %s" % changed
