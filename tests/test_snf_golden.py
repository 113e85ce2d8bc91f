"""Golden digests of the SNF kernel.

``smith_with_transforms`` has many valid outputs for one input, and
canonical coordinates, with them presentation-dependent report fields
such as ``d2_images``, depend on the exact transforms it returns, not
only on the diagonal.  These digests pin the transforms of the sparse
kernel, whose pivots are the sparsest column, then the smallest entry
of that column, then the sparsest row.  A change to the pivot rule, to
the order of the row and column operations, or to the final ordering
of rows and columns shows up here as a mismatch; it is re-frozen only
together with an account of every report it changes.

Each case pins two SHA-256 digests: one of the input matrix (so a change
in how the inputs are built is reported as such) and one of the kernel
output.  The genus(2) inputs come from ``from_monodromy``, whose edge
transports follow the base's canonical H_1 basis.  That basis is the
Hermite form of the tree gauge's class map, fixed by the complex alone,
so no input digest moves with the kernel's pivot order.
"""

import hashlib
import random

from leray import _kernel
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
        result = _kernel.smith_with_transforms(a, len(a), ncols)
        out[name] = (_sha(a), _sha(result))
    return out


GOLDEN = {
    'genus2-rank2-classical-d0': ('e875a6bf54496a9c70370ea39dd1ee0f',
         '3303c48060f510863069b40780871ce3'),
    'genus2-rank2-classical-d1': ('5da1df7a9b7a2509e7bfd03cd7bbe69c',
         '70ffa38d6144ce4383c3885c5462593e'),
    'genus2-rank2-e1-d0': ('24da4647684853aee9307015ed7122d0',
         '8777087a480d386a55e36982d4959dcd'),
    'genus2-rank2-e1-d1': ('5da1df7a9b7a2509e7bfd03cd7bbe69c',
         '70ffa38d6144ce4383c3885c5462593e'),
    'genus2-rank6-classical-d0': ('add8b4e3736570eab073ec7eb7a8fb5e',
         'd8fa998fa59e9b8e869626ad820cbaa1'),
    'genus2-rank6-classical-d1': ('ddfb8c67b31700d2dcc3690ab0d02fc5',
         '3979289d1e91dd181bd66e055c63b770'),
    'genus2-rank6-e1-d0': ('ab9fb5c74d5b543fb31aa6d3ec17b6d2',
         'd3912c54c6c5a0bc789cf12c04a9139c'),
    'genus2-rank6-e1-d1': ('ddfb8c67b31700d2dcc3690ab0d02fc5',
         '3979289d1e91dd181bd66e055c63b770'),
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
         'd886d93dd86dd40047e3222d0470a874'),
    'sparse-10x15-0.15': ('14a0941a89eb5a61f7b4243659907dde',
         'f57faf0c31ab0297bfb18fb3d15ce456'),
    'sparse-10x15-0.25': ('90378fb9a187ef0933a6bc756a3c3f3c',
         'ae2bfd016a48a83a14aecae7ce7f5ccb'),
    'sparse-12x12-0.1': ('b59ad74e96c8e099beeb9e71fd1577ce',
         '93147833a1d9c49adc091d2c537d1884'),
    'sparse-12x12-0.15': ('8305aa682a209e67390498b8024836e9',
         'e065636598ed72d30cd077fea285dc5f'),
    'sparse-12x12-0.25': ('233304d5b51ad5cf244ba6731b9c0323',
         '3e2121a35a09aa6f238bfdfe685539c4'),
    'sparse-15x10-0.1': ('719c2869eb9e91bd452da585c20a944f',
         'e4a12330d20ecb6f4945372f9a50fb4b'),
    'sparse-15x10-0.15': ('5179a770566b2a29ce9aea5aca3f12c9',
         '5f634fa04fc881bc1df06895aabb3662'),
    'sparse-15x10-0.25': ('b19817c7e455da9edec1464c0dfcaf3e',
         '3aca745468c06d9b24017a3b2c7e1174'),
    'sparse-1x1-0.1': ('db407f11d7ede59abaab0e98e097ff2d',
         '940bbdb1bcdeb6fc0097195e6e9d6fb8'),
    'sparse-1x1-0.15': ('db407f11d7ede59abaab0e98e097ff2d',
         '940bbdb1bcdeb6fc0097195e6e9d6fb8'),
    'sparse-1x1-0.25': ('db407f11d7ede59abaab0e98e097ff2d',
         '940bbdb1bcdeb6fc0097195e6e9d6fb8'),
    'sparse-1x7-0.1': ('36e6cd93c3454652341f90f62579190a',
         'c26105b4f661f1f4a88211c3ee312991'),
    'sparse-1x7-0.15': ('54455fc0ecd34241affedf8c8c5417a4',
         '69e0663c85ad1c6cc4f0257219b2987f'),
    'sparse-1x7-0.25': ('9a46d52302bfaaeb3dd0195eccdfe170',
         'e30714553763daf9291372f5e5012f80'),
    'sparse-4x9-0.1': ('48f9031736b24076604d068296ed75c7',
         '112cfb7fe29c5b509292cfb27c8dc5d8'),
    'sparse-4x9-0.15': ('9429a917cfca0f010fb9a08de2b64ef1',
         '997102fc5dd4bb5987250d17edc3de6a'),
    'sparse-4x9-0.25': ('65bb47e98a71e613c040c113411b8ff9',
         '24b1b08a87985019b53894cd783422e1'),
    'sparse-5x0-0.1': ('217dfe378d888901dd712599af59007b',
         '2c0ab3c01b4dc6b4b5ab038f1488b0fd'),
    'sparse-5x0-0.15': ('217dfe378d888901dd712599af59007b',
         '2c0ab3c01b4dc6b4b5ab038f1488b0fd'),
    'sparse-5x0-0.25': ('217dfe378d888901dd712599af59007b',
         '2c0ab3c01b4dc6b4b5ab038f1488b0fd'),
    'sparse-6x6-0.1': ('003da71b4cb888c7cad2efb83f779970',
         '489563074f5036ed9aa9134567aad10d'),
    'sparse-6x6-0.15': ('508ddb4736c1ecfef6ae24eb3b58f968',
         '8ed3c8784448f6b8a03e0872a11016b2'),
    'sparse-6x6-0.25': ('4d5f38c945b8612346ffa5fccf9bfe62',
         '1892dfe0a2c40c7f8df2f0d1e8bafcf0'),
    'sparse-7x1-0.1': ('1a99c8196e3b42189fdd8a430ec79fc2',
         '98bc13dbbdcffb426d18c6982bbabb93'),
    'sparse-7x1-0.15': ('ccc5a84566bcd2d4d46f1496e48cc8cd',
         '60720329fa5543171d26d4215b1de43a'),
    'sparse-7x1-0.25': ('7231c6b8800ff0b116383f9f398c596f',
         'b6fe54c65f9015d352e199d69e8309af'),
    'sparse-8x8-big': ('f4a02a4373f5ca01d9b471c6ef778ca6',
         '3007cb25dbd60307e1003688bb706108'),
    'sparse-9x4-0.1': ('8a299a2ff64795a4dec0c5c1b5a81cea',
         'f8af806becf16451a270ffdd9f46c5ff'),
    'sparse-9x4-0.15': ('b9d9f6de9eedfdf108c0ec9340186387',
         '698bfc57125b47adb923e18c93d313e6'),
    'sparse-9x4-0.25': ('b093f4d1605135680e3db97f6e941977',
         'fc19b6e877266470a83dce16ac7e4d44'),
    'torus2-rank2-classical-d0': ('20c2e609010f03b10e0d9fc81bad6f7f',
         '50962fb5b3c9e7f823b1c0ad7ebfd928'),
    'torus2-rank2-classical-d1': ('98c2f3a21692d990f516f441a4fbf3d7',
         '6a0dc4c13f9ae9704393756a0161fa4b'),
    'torus2-rank2-e1-d0': ('e14e6af3b59775cf1c7b670c5ad1a716',
         'fea38625f1e48bf99874ad7d5adca03d'),
    'torus2-rank2-e1-d1': ('98c2f3a21692d990f516f441a4fbf3d7',
         '6a0dc4c13f9ae9704393756a0161fa4b'),
    'torus2-rank6-classical-d0': ('3f9ddc8b68b3603c6f132a902ebf7432',
         '7de1549c8978a036c0d9c2084d5b485b'),
    'torus2-rank6-classical-d1': ('4adf5bb76b66c1a4f21a7f1eabe47438',
         'fec55959fc385f4442bd2b0e4b7c2769'),
    'torus2-rank6-e1-d0': ('18302252d676f661d8710c8718a4dd13',
         'c293d3ab1093ccb52ce0109ebf70f3e9'),
    'torus2-rank6-e1-d1': ('4adf5bb76b66c1a4f21a7f1eabe47438',
         'fec55959fc385f4442bd2b0e4b7c2769'),
}


def test_snf_transforms_bit_identical():
    got = digests()
    assert sorted(got) == sorted(GOLDEN)
    moved = [n for n in sorted(GOLDEN) if got[n][0] != GOLDEN[n][0]]
    assert not moved, "inputs changed, digests not comparable: %s" % moved
    changed = [n for n in sorted(GOLDEN) if got[n][1] != GOLDEN[n][1]]
    assert not changed, "SNF transforms changed: %s" % changed
