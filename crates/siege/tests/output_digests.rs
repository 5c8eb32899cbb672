//! Pins the compiler's observable output.  For each program — the
//! Gabriel suite at its bench inputs, the siege corpus and a fixed-seed
//! batch of generated programs — the table below holds the residual S₀
//! node count, the FNV-1a-64 digest of the printed S₀, the size of the
//! emitted C and the FNV-1a-64 digest of that C text.  A refactor that
//! claims byte-identical output must leave every row as it is; a change
//! that alters output on purpose re-pins the table from the printout.

use pe_interp::Datum;
use pe_siege::gen::gen_case;
use pe_siege::rng::Rng;
use realistic_pe::{emit_c, COptions, CompileOptions, Pipeline, SUITE};
use std::fmt::Write as _;
use std::path::Path;

/// Generated programs in the batch (the seed and size of
/// `inline_once_diff.rs`).
const GENERATED: u64 = 300;

/// `(program, S₀ nodes, S₀ digest, C bytes, C digest)`; a program the
/// pipeline refuses has zeros throughout.
type Row = (String, usize, u64, usize, u64);

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(name: &str, source: &str, entry: &str, args: &[Datum]) -> Row {
    let s0 = Pipeline::new(source)
        .ok()
        .and_then(|pipe| pipe.compile(entry, &CompileOptions::default()).ok());
    let Some(s0) = s0 else { return (name.to_string(), 0, 0, 0, 0) };
    let text = s0.to_source();
    let c = emit_c(&s0, args, &COptions::default()).source;
    (name.to_string(), s0.size(), fnv1a64(text.as_bytes()), c.len(), fnv1a64(c.as_bytes()))
}

fn programs() -> Vec<(String, String, String, Vec<Datum>)> {
    let mut out: Vec<_> = SUITE
        .iter()
        .map(|b| (b.name.to_string(), b.source.to_string(), b.entry.to_string(), b.bench_inputs()))
        .collect();
    let corpus = pe_siege::corpus::load_dir(&Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus"))
        .expect("corpus loads");
    assert_eq!(corpus.len(), 8);
    out.extend(corpus.into_iter().map(|c| (c.name, c.source, c.entry, c.args)));
    let mut rng = Rng::new(0x1A1E_0ACE);
    for i in 0..GENERATED {
        let case = gen_case(&mut rng);
        out.push((format!("gen-{i}"), case.source, case.entry, case.args));
    }
    out
}

#[test]
fn printed_s0_and_emitted_c_are_pinned() {
    let rows: Vec<Row> = realistic_pe::with_big_stack(|| {
        programs().iter().map(|(n, s, e, a)| digest(n, s, e, a)).collect()
    });
    let differing: Vec<&str> = rows
        .iter()
        .filter(|r| !PINNED.contains(&(r.0.as_str(), r.1, r.2, r.3, r.4)))
        .map(|r| r.0.as_str())
        .collect();
    if differing.is_empty() && rows.len() == PINNED.len() {
        return;
    }
    let mut table = String::new();
    for (name, nodes, s0, c_bytes, c) in &rows {
        let _ = writeln!(table, "    ({name:?}, {nodes}, {s0:#018x}, {c_bytes}, {c:#018x}),");
    }
    panic!(
        "{} of {} programs differ from the pinned table: {}\nnew table:\n{table}",
        differing.len(),
        rows.len(),
        differing.join(", ")
    );
}

#[rustfmt::skip]
const PINNED: &[(&str, usize, u64, usize, u64)] = &[
    ("deriv", 4785, 0x82f07dd5711f5e9e, 176909, 0x643cd323c624e49f),
    ("tak", 122, 0x5e8e4cdcf840e05c, 8655, 0x3c2c6b7494ebb8ba),
    ("cpstak", 335, 0x489e883633c32b7a, 13238, 0x30a58a05407f184b),
    ("takl", 2018, 0xb0c3cac10233379f, 70534, 0xb997b88f95955820),
    ("fibclos", 174, 0x39b4effd10438931, 9954, 0x88d51ae5cd2108fc),
    ("cps-append", 1540, 0x0891035b14351f3a, 51497, 0xdb6f30fea64dd1e1),
    ("queens", 608, 0xacb4421457dbc2cb, 23485, 0xb94bff122f9b053e),
    ("ascent", 9, 0x4f902b63fd44178a, 6132, 0xce206716fad63565),
    ("cps-dispatch", 13, 0x20f6dd81f320e43a, 6219, 0x24fb21fc1062b910),
    ("deep-chain", 103, 0x22dfcfbbb7bb2287, 8454, 0xe6f20d73a21b2a3d),
    ("grow-heap", 19, 0x164d62d3602f4366, 6305, 0x5608311deee04b24),
    ("mutual", 20, 0xa4708700327c8278, 6383, 0x9fe623341247f8c7),
    ("omega", 0, 0x0000000000000000, 0, 0x0000000000000000),
    ("overflow-edge", 5, 0x2e22232470d8c8a6, 6054, 0x97dcfde147747bc9),
    ("static-spin", 11, 0xfd3b62bb1885bc72, 6159, 0x417799eac813dec5),
    ("gen-0", 4, 0xab499019c1bcce90, 6111, 0x0b5818cdc596f567),
    ("gen-1", 7, 0x61435e9599f4db3e, 6161, 0x8b6c8ef5dcb0e20c),
    ("gen-2", 7, 0x0ff5302b6e53475b, 6254, 0x1acb47b691d95a48),
    ("gen-3", 4011, 0xe48f114c7e3d9610, 136251, 0xcff10241a13b8c60),
    ("gen-4", 4, 0x782a4219a505c2ca, 6031, 0x1add9a00fe92cece),
    ("gen-5", 1354, 0x9020efdc5317cf4b, 48810, 0x8c8a9134ca894f46),
    ("gen-6", 1516, 0xd2aab8008bbb7e55, 50957, 0xc826ba73dde18d43),
    ("gen-7", 1809, 0x4fa774eb11775abd, 58495, 0xe87b760f307a5e25),
    ("gen-8", 3, 0xcba6fc42c91a6889, 5978, 0x0636ed27a4b1d448),
    ("gen-9", 3, 0xcba6fc42c91a6889, 5978, 0x71e29b4f7625bdad),
    ("gen-10", 4, 0x782a4219a505c2ca, 6111, 0xa705cac2e5c26cb3),
    ("gen-11", 3, 0xdd03a2899cda1034, 5996, 0x4f88e0a5df42120d),
    ("gen-12", 3, 0xcba6fc42c91a6889, 5978, 0x71e29b4f7625bdad),
    ("gen-13", 3, 0x5ca126f514ff0eeb, 6002, 0x181b5e064ba95fa8),
    ("gen-14", 6, 0x5d710e9daa6e5d95, 6128, 0x1e9a915967777e03),
    ("gen-15", 6, 0xbc1902391b69f9bd, 6122, 0x6880d8e8ea8c5d6d),
    ("gen-16", 10, 0xbf587a04e4a4f318, 6253, 0x86712f7222c2c898),
    ("gen-17", 3, 0xf663bf89ab0d3ad7, 6036, 0xb1f2c05a7787b4a4),
    ("gen-18", 5, 0x802375269fc752d1, 6083, 0x72953e6cff7e0dcb),
    ("gen-19", 4, 0x6b8367a6fd57a4d2, 6098, 0x98b5da5130e127fe),
    ("gen-20", 63, 0xf305a397c4f82dc1, 7228, 0xf44e7584946d7c89),
    ("gen-21", 2752, 0x48a8f71f7c3347dc, 93264, 0x82b33976b02dc3dc),
    ("gen-22", 7, 0x2b10434b9ed63eb5, 6064, 0x0db98e40956d4e84),
    ("gen-23", 18, 0xaaed02377b8d4688, 6368, 0x228decb5d40212f5),
    ("gen-24", 14, 0xf096db1d14adf91d, 6457, 0x521a10942753d3b8),
    ("gen-25", 3, 0xcba6fc42c91a6889, 5978, 0x71e29b4f7625bdad),
    ("gen-26", 4, 0x4ce197198c837495, 6092, 0xfef9a7cb112d9836),
    ("gen-27", 4, 0xab499019c1bcce90, 6071, 0xe0d6f01412790195),
    ("gen-28", 3, 0xcba6fc42c91a6889, 5976, 0xb71c0526a99408f2),
    ("gen-29", 4, 0x03feea0b5a73f8d4, 6050, 0xfcfc7c6007e432fe),
    ("gen-30", 5720, 0x6b7d4120b35a7595, 199155, 0x2dbcdf32eb2808ff),
    ("gen-31", 3, 0xee8cec89a6d82bb6, 5996, 0xfb2aecedef762a44),
    ("gen-32", 1673, 0x34bb053b18937936, 57822, 0x22084084c2e33dd1),
    ("gen-33", 3, 0x7a63247945131fed, 5998, 0x0dce4447320642bf),
    ("gen-34", 3, 0xe5b3ed89a1c7dbfd, 6015, 0xcb9415a3955d9237),
    ("gen-35", 5, 0x14dfc15c6d3aa92b, 6042, 0x4f3b25eaec18076e),
    ("gen-36", 679, 0x1bae1be639aa7101, 24557, 0x04abe0f8026966c7),
    ("gen-37", 6953, 0x91a6858808d4a982, 250384, 0x0f210a024a3c8000),
    ("gen-38", 6, 0x105b0d717bc816d7, 6058, 0x02dc544d7d1bd61a),
    ("gen-39", 3, 0x8b3ce14853d05025, 6097, 0x772329f40e323a38),
    ("gen-40", 4, 0x8d262d14e6755fa7, 6013, 0xa9aa76feef2804ac),
    ("gen-41", 3, 0xee8cec89a6d82bb6, 5994, 0x416f7cbcc518c1cc),
    ("gen-42", 3, 0xa83144897eb154be, 5996, 0x7773beb6d3434cbe),
    ("gen-43", 4, 0x44314c198795a8cc, 6029, 0x7c360f6ee03fa61d),
    ("gen-44", 335, 0xa7daed0f35d7c743, 14786, 0xad27d88fb69f0ca8),
    ("gen-45", 7870, 0x39b741e222c20b65, 269221, 0x7ab709ab5fa9de8e),
    ("gen-46", 492, 0x8f0f0b0752099aa7, 19872, 0x6dfa393ca63a18cd),
    ("gen-47", 353, 0x3c140a6309e0d6b5, 15610, 0x8dfc7e826a69fe88),
    ("gen-48", 1963, 0x32a5aa81d36d4134, 70389, 0x1defdce90520a210),
    ("gen-49", 40, 0xd1e9a42746209178, 7092, 0xa165d394d7611f51),
    ("gen-50", 23, 0x26380594fc96e91f, 6550, 0x73057c554a03d601),
    ("gen-51", 4, 0x8d262d14e6755fa7, 6013, 0xcd8c8a92ed6720ee),
    ("gen-52", 3, 0xff065e89afef5800, 5996, 0x3c065c6a5e44036d),
    ("gen-53", 15, 0x78ba2a0972d96efd, 6340, 0xa5e2c99f25b3a50b),
    ("gen-54", 1012, 0x35e6927bccbecda8, 35864, 0xf071437f251c4424),
    ("gen-55", 1829, 0xc1482ab4499a1018, 65047, 0x856d255a8d203e77),
    ("gen-56", 3599, 0x000e5f4df7b43290, 117478, 0x281ffc1762a9a574),
    ("gen-57", 3, 0x9fc4e58979fd33c5, 5994, 0x612dc67b9c89fc57),
    ("gen-58", 238, 0x0e2330e87c05c972, 13623, 0x5655012a6abc4c77),
    ("gen-59", 3, 0xf663bf89ab0d3ad7, 6015, 0x48cafe500aeab829),
    ("gen-60", 4, 0x8d262d14e6755fa7, 6114, 0xdc898a34ed394dcc),
    ("gen-61", 3, 0xd3877389973f0d9b, 6057, 0x1e7975b5f95396a8),
    ("gen-62", 4, 0x8c28c4a2b018bbfd, 6098, 0x35d0c18dcc1aeb6e),
    ("gen-63", 4, 0x1b4c5658128c8d5f, 6032, 0x453d0b0428f3b0b0),
    ("gen-64", 1537, 0x505ee75c0a707362, 51621, 0x79a12d12e24ebbe9),
    ("gen-65", 838, 0x14c42163449029d4, 31184, 0x5b702214829ea27d),
    ("gen-66", 32, 0x5e4ac153aa9b1435, 6746, 0x91dc11e19893f8cf),
    ("gen-67", 6, 0x0c639bb63c650315, 6068, 0x9e66b023782c1f92),
    ("gen-68", 4863, 0xeba0614db788eb7b, 179711, 0x9ac1adf8887f432c),
    ("gen-69", 6, 0x6f7c950ea3672dec, 6111, 0x271d39d015a192c8),
    ("gen-70", 3, 0xe7ca03ceab10ed2b, 5998, 0xab9b339eb61b23ae),
    ("gen-71", 8, 0x205eb5c0c7483920, 6089, 0x54a4fc2117037d22),
    ("gen-72", 27, 0x53acaafd3abc5799, 6807, 0xf2e291727942009e),
    ("gen-73", 4, 0x6f879319a0238a71, 6090, 0xb11943648c854bdd),
    ("gen-74", 3, 0xff065e89afef5800, 6036, 0x5c4e7f91ed7f7ec3),
    ("gen-75", 3, 0x10fc7889ba49f3d2, 5994, 0x89ab42ca759bc160),
    ("gen-76", 3, 0x1918534ee464ba3a, 6015, 0x68192c70285f16e1),
    ("gen-77", 4, 0x4c2b953164de1233, 6117, 0x831878be102ea847),
    ("gen-78", 1509, 0xc9c970c5cfd1ce96, 53538, 0x2f02add021a931c4),
    ("gen-79", 14, 0x28b32799d8d84f8a, 6353, 0x700f1afe5b734c43),
    ("gen-80", 2303, 0xd739e5e2b175f089, 83432, 0x19d246ef68677df7),
    ("gen-81", 7691, 0xa00057bdbbc99328, 256484, 0x7024083d3aad4b28),
    ("gen-82", 24, 0xf5c34acf35d7be6f, 6513, 0x74a4b8a315e8f5a4),
    ("gen-83", 12, 0xa981c49122565080, 6355, 0xe3b5fc1bf2fadd92),
    ("gen-84", 8, 0x4e491bfbcb6e89bd, 6184, 0xc411c634150fe76e),
    ("gen-85", 4, 0xbb0988507125b049, 6098, 0x4b90e98fab840527),
    ("gen-86", 8, 0x051e907d3de76024, 6116, 0x1e496926d955c99d),
    ("gen-87", 6, 0xeaacff781e7d8eb6, 6100, 0x11a6e19bacaa2041),
    ("gen-88", 4, 0x65286b3120e8144c, 6113, 0x2bd3e44ef6722ae6),
    ("gen-89", 3, 0xff065e89afef5800, 5996, 0x3c065c6a5e44036d),
    ("gen-90", 3, 0xbd5fc2de43fe15fd, 5995, 0x8d10c82caf157b45),
    ("gen-91", 5, 0xb8ec5b8cca86d10c, 6045, 0x5d06f3d785a26cbc),
    ("gen-92", 8, 0x6e579aa87f36a4aa, 6123, 0xf3405baa34b24560),
    ("gen-93", 380, 0x5a77f3c5335d2f39, 16131, 0x2696debd69326edd),
    ("gen-94", 5, 0xac1a0907c75ea37c, 6093, 0x55526841f677f1a8),
    ("gen-95", 111, 0x871d00e16b629b34, 8716, 0x48147b9673f4f335),
    ("gen-96", 10, 0x8fbb7ea4b390e9be, 6151, 0xd21a687d3ce4acc7),
    ("gen-97", 4, 0x03aa58a1c8bc88ec, 6093, 0x0522db8604a72a70),
    ("gen-98", 7129, 0x1ab5408666530e1e, 269049, 0x8a768953213a58d7),
    ("gen-99", 74, 0x7a76ffe4171e2761, 7501, 0xcef726a774ebbc8e),
    ("gen-100", 4, 0x1252942022d6af56, 6051, 0xbf7b6cbdf4cfe08a),
    ("gen-101", 3, 0xcba6fc42c91a6889, 5978, 0x5d8c192027561e34),
    ("gen-102", 3, 0x8b3ce14853d05025, 6036, 0x89450155832b3e6b),
    ("gen-103", 3, 0x4d22bba2bd3e387b, 6016, 0xac78c7e23bc49b6d),
    ("gen-104", 521, 0x62852c17b08fefc1, 20283, 0xb15743c684828f34),
    ("gen-105", 10, 0xc143938978691a01, 6228, 0x89abd646fd9a181a),
    ("gen-106", 4, 0x8d262d14e6755fa7, 6074, 0xafede980ebe492bd),
    ("gen-107", 21, 0xacac298a95aed476, 6527, 0xfbc4c44c47684e46),
    ("gen-108", 1596, 0xdfc724833edbab56, 53821, 0xc7e72ffa31d8b58d),
    ("gen-109", 3, 0x3bbd786a55cd03fa, 5994, 0x6ed92741513475f0),
    ("gen-110", 1084, 0x405b66e1969238e1, 36760, 0xb94d48b9ecd08294),
    ("gen-111", 6, 0xb3f3f54f302c9cef, 6143, 0xfaa26940bee1cf5c),
    ("gen-112", 180, 0x65d930dab5c46b77, 10417, 0xed08006768ebe143),
    ("gen-113", 3, 0xff065e89afef5800, 5996, 0x58e9c3be96156ae3),
    ("gen-114", 368, 0x47dec528be0518b9, 15819, 0x0a8892f5b2bed030),
    ("gen-115", 3, 0xcba6fc42c91a6889, 5978, 0x0636ed27a4b1d448),
    ("gen-116", 1451, 0x0c35aee807558549, 50385, 0x0da6d476a72d2c23),
    ("gen-117", 3, 0x0859c989b567bb79, 5996, 0x909a7e7dfb02e76c),
    ("gen-118", 4, 0x34c2202036487772, 6049, 0x72d4232d51397590),
    ("gen-119", 4, 0x8d262d14e6755fa7, 6013, 0x4bb096138d8237ee),
    ("gen-120", 22549, 0xcb2db2b97531ac1f, 880436, 0xb0e3f288bbc4a916),
    ("gen-121", 7, 0xd93389035b6492d0, 6153, 0x9eab9a3d4da06bd4),
    ("gen-122", 3, 0x113725081074db52, 6016, 0x7fb72bbca97ebdd4),
    ("gen-123", 4, 0x54747619907ecb4e, 6092, 0x3ce648452fe65a14),
    ("gen-124", 4, 0xed415b5cc584379b, 6009, 0x429aa1f7bb94f644),
    ("gen-125", 4, 0x5d24a919956c6e4f, 6071, 0xe2813c3890c9ec7b),
    ("gen-126", 4, 0x83b1775f1976d56c, 6029, 0xc7883bba294037c0),
    ("gen-127", 1931, 0xa4994bb4d3f7cf86, 68086, 0xba60ed55c5d24f6d),
    ("gen-128", 4, 0x44314c198795a8cc, 6092, 0x58b781a7ac2bb6ad),
    ("gen-129", 7, 0x33a19566e88061b8, 6096, 0x58ac722df07fd6a4),
    ("gen-130", 19, 0xb55355f2343397e3, 6343, 0xe512b9989990c557),
    ("gen-131", 3, 0x8b3ce14853d05025, 6036, 0x89450155832b3e6b),
    ("gen-132", 20, 0xe3782f971db72fe7, 6747, 0xfaf743fee30da7b0),
    ("gen-133", 11, 0x6a9eda061c5a8e73, 6258, 0x92d425a8ab22ffa2),
    ("gen-134", 31, 0xabe28c4c51073744, 7163, 0x0e5bc98d8a0b0eb4),
    ("gen-135", 4, 0x94ef4c14ea9eb290, 6011, 0x08dbf296ec263238),
    ("gen-136", 3, 0x3bbd786a55cd03fa, 5994, 0x88f7844d8eb0a692),
    ("gen-137", 4, 0x86b7e00d8ff94a0c, 6009, 0x98c360840c98180c),
    ("gen-138", 7, 0xac7753fab060777a, 6141, 0xe0bf7ec67cd43cf6),
    ("gen-139", 3, 0xcba6fc42c91a6889, 5978, 0x50a15e8d88203623),
    ("gen-140", 283, 0xf4e88e2993302510, 13356, 0x90dfb32b8dfdaf83),
    ("gen-141", 4, 0x94ef4c14ea9eb290, 6013, 0x69814ec6809d4e8a),
    ("gen-142", 3, 0xcba6fc42c91a6889, 5978, 0xfbec71db1c29d436),
    ("gen-143", 3, 0xff065e89afef5800, 6036, 0x9f94bbb811c80c46),
    ("gen-144", 6, 0x8d5296ba9b3c7d6e, 6083, 0x55ecf83b054c7784),
    ("gen-145", 14, 0xe0fd6e3b6f16ecd2, 6286, 0xe994a67a49b1e42f),
    ("gen-146", 5566, 0x47af3201fe2eff76, 199425, 0xbe4290f91f384e79),
    ("gen-147", 4, 0x8d262d14e6755fa7, 6072, 0xe008ddcb199bcc8b),
    ("gen-148", 4, 0x94ef4c14ea9eb290, 6011, 0x1bac74f2cfbf3835),
    ("gen-149", 7, 0x62f5a9fc1d899175, 6169, 0x479b0844e52a0059),
    ("gen-150", 1522, 0x56d415cebd7b9303, 53900, 0x0abdb9bfac1c0b07),
    ("gen-151", 5363, 0x675602b2a719542c, 182690, 0xe7ecee428a38efea),
    ("gen-152", 1879, 0x0a15cf50ccb8bbcd, 64920, 0x4ce844ebdc673d19),
    ("gen-153", 4, 0x8d262d14e6755fa7, 6032, 0x12e475f64d10f853),
    ("gen-154", 18, 0x2ddf7b18b5f2fad8, 6495, 0x3fc270557630e7cc),
    ("gen-155", 4, 0x83b1775f1976d56c, 6130, 0x0297fad46cbe5921),
    ("gen-156", 4, 0x8d262d14e6755fa7, 6032, 0xa807d410ea32acbd),
    ("gen-157", 4, 0xa3807119bd937ba7, 6071, 0x22c00d958ab66a71),
    ("gen-158", 11, 0xc24076fcd5e4765d, 6192, 0xf47f3351deb74525),
    ("gen-159", 4, 0x8d262d14e6755fa7, 6013, 0x34a3178d68b20ffb),
    ("gen-160", 3, 0xcba6fc42c91a6889, 5978, 0x50a15e8d88203623),
    ("gen-161", 22, 0xc3a2bbd6c26e2427, 6546, 0xf6d51eb5dac28a5c),
    ("gen-162", 10159, 0x33c585fa427771e1, 363444, 0x3fff07bc779e2a43),
    ("gen-163", 3300, 0xce071a436a2932fe, 116485, 0x9b7b3812a15967dc),
    ("gen-164", 4576, 0x7ca4d82229763c23, 160413, 0x09c3ef15573de4a6),
    ("gen-165", 3, 0xff065e89afef5800, 5996, 0x3696dbe8b9842a89),
    ("gen-166", 12, 0x37fa4defd4dc5fc0, 6290, 0x8bfa61582848ed43),
    ("gen-167", 14, 0x37c3ab57b737af4e, 6274, 0x867c042744abdf0f),
    ("gen-168", 3, 0x0859c989b567bb79, 6015, 0x55b038ac43736822),
    ("gen-169", 4, 0x54747619907ecb4e, 6031, 0x5918cc9dadfccd86),
    ("gen-170", 163, 0x38a7d12fb04e16ac, 10096, 0xd06bec858ee86463),
    ("gen-171", 4, 0x54747619907ecb4e, 6031, 0x4827aa4102a17b73),
    ("gen-172", 3, 0xcba6fc42c91a6889, 5978, 0x5d8c192027561e34),
    ("gen-173", 1071, 0x44a0b267a4b997a2, 40333, 0x16e2e0655444188c),
    ("gen-174", 20, 0x5a4e6699ffc00d47, 6387, 0x430cab65c1c308cc),
    ("gen-175", 4, 0x66a0e8199b078c18, 6031, 0x1ad8f465dc566bec),
    ("gen-176", 21, 0x23ea99c6ea91d9f8, 6364, 0x332c3a2d83f59edb),
    ("gen-177", 8, 0xcfb76b3b247f587a, 6123, 0x3b56e51645bee6e3),
    ("gen-178", 6, 0x90a0d0e7ff132d4f, 6082, 0x90d9280e69b58192),
    ("gen-179", 14837, 0x2d4daf5ac342b125, 602782, 0x01cec10b3f1aae45),
    ("gen-180", 4, 0x6143069381a5a13c, 6070, 0xbb5a8181523cf988),
    ("gen-181", 3, 0xcba6fc42c91a6889, 5978, 0x66a63122e578edc9),
    ("gen-182", 205, 0xfe17dd3fcdc297db, 11248, 0xc52552031a1b7be3),
    ("gen-183", 4, 0x7b905eecc548c322, 6077, 0x8f88332e9cd21f50),
    ("gen-184", 9, 0x401d71e5fe8be087, 6155, 0x43fc9f14b316dabe),
    ("gen-185", 10, 0x24a4b8dd138715f3, 6117, 0xa614249d022fd072),
    ("gen-186", 9040, 0xcd367e0c78aa206f, 336396, 0xd14fc90535b99ac3),
    ("gen-187", 4, 0x8d262d14e6755fa7, 6013, 0xb8057e4d2a5bb5aa),
    ("gen-188", 1438, 0xa5d4bfa829b5ad62, 50988, 0x995cb8d974ee88f4),
    ("gen-189", 9, 0xb9c33fbc95229f05, 6181, 0xab72a97b588077d3),
    ("gen-190", 8, 0xfa6442af92bd795c, 6248, 0x3a7ededf0e5e883e),
    ("gen-191", 4, 0x94ef4c14ea9eb290, 6032, 0x4b02bc86c967e1c7),
    ("gen-192", 1887, 0x3f6c24f1a3efe700, 69033, 0xc80fc756407da358),
    ("gen-193", 3, 0x10fc7889ba49f3d2, 6057, 0x8b134713c4237a7d),
    ("gen-194", 4, 0x8d262d14e6755fa7, 6074, 0xced5a97cbfcb5b4a),
    ("gen-195", 20, 0x1921df8a7c93553d, 6550, 0x68a715f23b3a03e2),
    ("gen-196", 408, 0xb8632b38030fae2c, 17344, 0x0e15faa19ffa2dc8),
    ("gen-197", 3, 0xcba6fc42c91a6889, 5978, 0x50a15e8d88203623),
    ("gen-198", 5, 0x29a62123473385c4, 6129, 0x92d2f70bf622da20),
    ("gen-199", 3, 0xcba6fc42c91a6889, 5978, 0x50a15e8d88203623),
    ("gen-200", 4, 0x94ef4c14ea9eb290, 6093, 0xa30f6ec2ee017390),
    ("gen-201", 4, 0x1e50b5a1d804e2ef, 6051, 0x3f68fc7aaf3b24bb),
    ("gen-202", 4, 0x86b7e00d8ff94a0c, 6009, 0x3f01ff855acbcdcf),
    ("gen-203", 8, 0x66901f388839d504, 6123, 0x11d82cf2f79275f4),
    ("gen-204", 3, 0x776ef9069f137357, 6063, 0xbd19da7fa6c33aba),
    ("gen-205", 3, 0xe5b3ed89a1c7dbfd, 5996, 0x38dbca4826fb6f34),
    ("gen-206", 4, 0x54747619907ecb4e, 6029, 0x6ad90cf05c335a02),
    ("gen-207", 4, 0x4ce197198c837495, 6090, 0xb53686bb39846d8d),
    ("gen-208", 4, 0x03616ec3c2cfdeea, 6091, 0x32900128b89c1b13),
    ("gen-209", 3, 0xab3348de3975479b, 6058, 0xb4db48f522789272),
    ("gen-210", 4, 0x8d262d14e6755fa7, 6013, 0x49140dcb4f13c4f8),
    ("gen-211", 4, 0x54747619907ecb4e, 6092, 0x6f2d246d12d6f176),
    ("gen-212", 14, 0x64e06e8c1166afc4, 6326, 0xe097e1e84ec94f35),
    ("gen-213", 34, 0xd0ab08e41222c271, 6842, 0xf80097d7c8976900),
    ("gen-214", 3, 0xd3877389973f0d9b, 6036, 0x4774954b5e41c076),
    ("gen-215", 14, 0x8afcfb06f069c83a, 6277, 0x09329d4f296ca363),
    ("gen-216", 6, 0xc74d0bb4b593ce73, 6063, 0x8d0e61bf5e2c8c7f),
    ("gen-217", 5, 0xa6da5530fb6fca6d, 6062, 0x45c8d20940815da9),
    ("gen-218", 4, 0x94ef4c14ea9eb290, 6013, 0x269a3e8aa2a09a39),
    ("gen-219", 13688, 0x79c5f6e66c3c99db, 549868, 0x512b331543b4df39),
    ("gen-220", 8, 0x829ed98361efbbde, 6128, 0xafec04ac635a1620),
    ("gen-221", 4, 0xf4db3c087153287e, 6046, 0xb769d082440efed3),
    ("gen-222", 12, 0x58932d9e4b3e80fd, 6217, 0x769b1a6c4571593f),
    ("gen-223", 990, 0xe87380ab4f5d70f4, 35858, 0xe28ef15fa76b7e52),
    ("gen-224", 4, 0x89e4147961938919, 6032, 0x243236a5facc07dd),
    ("gen-225", 219, 0x31958d2c14d92df5, 11523, 0x41694d98f8fa0fdd),
    ("gen-226", 1951, 0x24295d5083435781, 63242, 0xa7fc3572f8b971c0),
    ("gen-227", 15326, 0x2284cf2b48e2bead, 579397, 0x79ef27273cbc80ea),
    ("gen-228", 3, 0xe5b3ed89a1c7dbfd, 5996, 0x41f5e24ae51e3ec9),
    ("gen-229", 2373, 0x2e2a62c5cf844b59, 77124, 0xa446f03ef020d94b),
    ("gen-230", 1448, 0xe51c7b11574f4eb1, 50497, 0x00fe12022e432896),
    ("gen-231", 3, 0x9fc4e58979fd33c5, 5996, 0xa4a49bbabb9bdd61),
    ("gen-232", 3, 0x9fc4e58979fd33c5, 5996, 0x87451d841e2e9f2c),
    ("gen-233", 977, 0x906c6e546a749e09, 32753, 0x81711d3a19fc1957),
    ("gen-234", 3, 0xa83144897eb154be, 5996, 0x5707518963e190d2),
    ("gen-235", 553, 0x64f68a886f978529, 21593, 0x18e4e84e2668c6e2),
    ("gen-236", 313, 0xa36d719329edd99c, 14446, 0xf35883b87413807f),
    ("gen-237", 3, 0x7ed0ec88196f6dbb, 5996, 0x907ba85b4d58800d),
    ("gen-238", 7, 0x4109e1bcd4476590, 6188, 0x12d4f2d3f3df2119),
    ("gen-239", 8, 0xf752447d015bd12e, 6177, 0xaf16010df7f31ecf),
    ("gen-240", 4, 0x66a0e8199b078c18, 6090, 0x2612e4ca6a3a3329),
    ("gen-241", 3, 0xd3877389973f0d9b, 6057, 0x8c78c1a416c2abc8),
    ("gen-242", 8, 0xf7562be191eacb46, 6090, 0xdc113799a843dc05),
    ("gen-243", 3, 0xee8cec89a6d82bb6, 5994, 0x416f7cbcc518c1cc),
    ("gen-244", 8, 0xf7562be191eacb46, 6090, 0x6e7108c35dd6034f),
    ("gen-245", 18, 0x54e792189083967a, 6649, 0x04cfdcb2b1586885),
    ("gen-246", 8, 0x4f38cadb480444e1, 6115, 0xd23912a2f9f76ed5),
    ("gen-247", 4, 0x6952cb4c9eba4552, 6077, 0x66d94690d410924b),
    ("gen-248", 4, 0x5a289a499e2a77f2, 6134, 0xca96e4d7d2f8c519),
    ("gen-249", 3, 0x3bbd786a55cd03fa, 5994, 0x88f7844d8eb0a692),
    ("gen-250", 4, 0x54747619907ecb4e, 6031, 0xede68b34bf058e80),
    ("gen-251", 4, 0xa3807119bd937ba7, 6031, 0xe4fcf114a6590d60),
    ("gen-252", 17, 0xbb1ff6296482e0f8, 6494, 0x9ce931accc2a7cb7),
    ("gen-253", 5, 0x7d639a823e96e71f, 6036, 0x514f76741323662f),
    ("gen-254", 6, 0xf356ad21023f7bb5, 6077, 0xb2dfea8aa669829e),
    ("gen-255", 23, 0x8d4490a2d1cd4283, 6508, 0x2de7abeefc3f55a9),
    ("gen-256", 3, 0xf663bf89ab0d3ad7, 5994, 0x760bc0f255003f6d),
    ("gen-257", 149, 0x05f837675583f432, 9671, 0xce6c94f22ac3b161),
    ("gen-258", 3, 0xe5b3ed89a1c7dbfd, 6015, 0xc9f80b013a4c8531),
    ("gen-259", 4, 0x8d262d14e6755fa7, 6013, 0xd029950b63fc78a3),
    ("gen-260", 5786, 0x10c6f1a187ca4091, 193338, 0x6ab63daed138add0),
    ("gen-261", 5, 0xf788ade322462b29, 6012, 0xdcb3fba47dbd6bc8),
    ("gen-262", 20, 0xd08ffa6040665726, 6429, 0xeaec2dda6ebd5d4c),
    ("gen-263", 17, 0xf9f780cb2d8a4a90, 6399, 0xc20e1aa4d0acb6b4),
    ("gen-264", 17, 0x8cfe8ebca0b54800, 6396, 0x6568319926d94a61),
    ("gen-265", 1275, 0x1a1975858d4708cc, 43931, 0x78208fbc1d44fccb),
    ("gen-266", 9, 0x647933949b2b0817, 6115, 0xbce845f96d0b990f),
    ("gen-267", 3, 0x8b3ce14853d05025, 6036, 0x45f1510ca5997e70),
    ("gen-268", 2254, 0x8f762886817a3788, 78516, 0x6c605543468f0a00),
    ("gen-269", 11, 0x030128663da173b2, 6202, 0xa8e572c37df10f7c),
    ("gen-270", 3, 0xcba6fc42c91a6889, 5978, 0x0636ed27a4b1d448),
    ("gen-271", 6, 0xae9f6abefce576c2, 6080, 0xd2424db008cf565c),
    ("gen-272", 9, 0x5a6852c7f7499f08, 6117, 0xa7d306f963bf8c0c),
    ("gen-273", 3, 0xcba6fc42c91a6889, 6039, 0xfd228074b2fba3ac),
    ("gen-274", 4, 0x66a0e8199b078c18, 6031, 0x3850ad388474762e),
    ("gen-275", 3, 0xee8cec89a6d82bb6, 5996, 0x149552f7137281c6),
    ("gen-276", 5, 0xfa74446fe6933c19, 6036, 0xdd72f582f440ab4d),
    ("gen-277", 3, 0x43fe83d572679549, 6058, 0x12ab3515509fd0a8),
    ("gen-278", 5, 0xa0ca314b6c47521b, 6051, 0x411ab6dfbb98b10d),
    ("gen-279", 3, 0xc638c1de490e65b6, 5995, 0x828f25741c3e648a),
    ("gen-280", 3, 0x10fc7889ba49f3d2, 5996, 0x36eace052c20d24b),
    ("gen-281", 5309, 0xbedeae3f87cd4a89, 208606, 0x66d75713831d97eb),
    ("gen-282", 4, 0x94ef4c14ea9eb290, 6074, 0xb449fa5ec4e50a7e),
    ("gen-283", 3, 0x3bbd786a55cd03fa, 5994, 0x6ed92741513475f0),
    ("gen-284", 3, 0xe5b3ed89a1c7dbfd, 6036, 0x40552c2377e86bfa),
    ("gen-285", 3, 0xe5b3ed89a1c7dbfd, 5996, 0x2bf10fb587c58723),
    ("gen-286", 5, 0xc12f0af6f4eba05c, 6089, 0x7fa29b85f6883002),
    ("gen-287", 12, 0x228556e450eb80e3, 6202, 0x55a3c52c750da352),
    ("gen-288", 14, 0xfd5cd9f5a7bdab44, 6222, 0xda4ff10703623898),
    ("gen-289", 11, 0x671f6d49a4234fc9, 6261, 0x0471670c7c5502a0),
    ("gen-290", 3, 0x0859c989b567bb79, 6057, 0xcfff89a49cf0a399),
    ("gen-291", 3, 0x1918534ee464ba3a, 6015, 0xf8c9a6267cb4e1e0),
    ("gen-292", 3, 0xff065e89afef5800, 5996, 0x58e9c3be96156ae3),
    ("gen-293", 3224, 0x4926b161125a9657, 116967, 0x5e2acfd656c05a7e),
    ("gen-294", 1287, 0x89822d2885d6e24a, 44485, 0x6b08c43a7daa49a3),
    ("gen-295", 34, 0xc2709ec189b1cd53, 6681, 0xfc4e4c7e69de76e7),
    ("gen-296", 3, 0x06f2de9c58607523, 5998, 0x86c18d956032ef08),
    ("gen-297", 4, 0x94ef4c14ea9eb290, 6032, 0xe576f9730a8c4afe),
    ("gen-298", 3, 0xf663bf89ab0d3ad7, 5996, 0x289e01766d1caf20),
    ("gen-299", 3, 0xf663bf89ab0d3ad7, 5996, 0x6ea399849ff28b2f),
];
