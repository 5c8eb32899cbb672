//! Pins the compiler's observable output.  For each program — the
//! Gabriel suite at its bench inputs, the siege corpus and a fixed-seed
//! batch of generated programs — the table below holds the residual S₀
//! node count, the FNV-1a-64 digest of the printed S₀, the size of the
//! emitted C and the FNV-1a-64 digest of that C text.  A refactor that
//! claims byte-identical output must leave every row as it is; a change
//! that alters output on purpose re-pins the table from the printout.
//! A second table pins the VM's work — steps, allocations and tail
//! calls — for each Gabriel program at its bench inputs, the runs
//! perfbench's `fig8-run` times; it re-pins the same way.

use pe_interp::Datum;
use pe_siege::gen::gen_case;
use pe_siege::rng::Rng;
use realistic_pe::{emit_c, COptions, CompileOptions, Limits, Pipeline, SUITE};
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

#[test]
fn vm_work_at_bench_inputs_is_pinned() {
    let rows: Vec<(&str, u64, u64, u64)> = SUITE
        .iter()
        .map(|b| {
            let vm = Pipeline::new(b.source)
                .and_then(|pipe| pipe.compile_vm(b.entry, &CompileOptions::default()))
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let (_, stats) = vm
                .run(&b.bench_inputs(), Limits::default())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            (b.name, stats.steps, stats.allocs, stats.calls)
        })
        .collect();
    if rows == VM_WORK {
        return;
    }
    let mut table = String::new();
    for (name, steps, allocs, calls) in &rows {
        let _ = writeln!(table, "    ({name:?}, {steps}, {allocs}, {calls}),");
    }
    panic!("VM work differs from the pinned table; new table:\n{table}");
}

#[rustfmt::skip]
const PINNED: &[(&str, usize, u64, usize, u64)] = &[
    ("deriv", 4785, 0x82f07dd5711f5e9e, 161870, 0x720539e5cdc161cd),
    ("tak", 122, 0x5e8e4cdcf840e05c, 9033, 0x4b2b0a59c68837e9),
    ("cpstak", 335, 0x489e883633c32b7a, 13375, 0xb56e09dd04369670),
    ("takl", 2018, 0xb0c3cac10233379f, 66110, 0x5678e4bb8f396914),
    ("fibclos", 174, 0x39b4effd10438931, 10142, 0xcf5463cab1520aac),
    ("cps-append", 1540, 0x0891035b14351f3a, 48510, 0x39a13f51693731e2),
    ("queens", 608, 0xacb4421457dbc2cb, 22456, 0xcc457ba7bd642c76),
    ("ascent", 9, 0x4f902b63fd44178a, 6627, 0x60fca3fe8a461f82),
    ("cps-dispatch", 13, 0x20f6dd81f320e43a, 6698, 0x43bc7ee49ccaadde),
    ("deep-chain", 103, 0x22dfcfbbb7bb2287, 8718, 0x4d02cac3f8b6d764),
    ("grow-heap", 19, 0x164d62d3602f4366, 6778, 0xc5e540704aa3ccae),
    ("mutual", 20, 0xa4708700327c8278, 6830, 0x27536da765e95cae),
    ("omega", 0, 0x0000000000000000, 0, 0x0000000000000000),
    ("overflow-edge", 5, 0x2e22232470d8c8a6, 6565, 0x90414e7447c8cd9a),
    ("static-spin", 11, 0xfd3b62bb1885bc72, 6670, 0x78057669cc9cd964),
    ("gen-0", 4, 0xab499019c1bcce90, 6600, 0x9b654ff0e9a62c32),
    ("gen-1", 7, 0x61435e9599f4db3e, 6640, 0xf715ca771a570f8c),
    ("gen-2", 7, 0x0ff5302b6e53475b, 6765, 0x131dc9ae5859cc73),
    ("gen-3", 4011, 0xe48f114c7e3d9610, 126787, 0x2b487d9794476612),
    ("gen-4", 4, 0x782a4219a505c2ca, 6520, 0xa5209c17ffa076c3),
    ("gen-5", 1354, 0x9020efdc5317cf4b, 45383, 0x0c068bff68595625),
    ("gen-6", 1516, 0xd2aab8008bbb7e55, 47288, 0x49b769f4251131a7),
    ("gen-7", 1809, 0x4fa774eb11775abd, 55772, 0xa369111753e473a2),
    ("gen-8", 3, 0xcba6fc42c91a6889, 6489, 0x3c096ea097e4d7c7),
    ("gen-9", 3, 0xcba6fc42c91a6889, 6489, 0x23f05c210ae761ba),
    ("gen-10", 4, 0x782a4219a505c2ca, 6600, 0x888ff1b08a1e8062),
    ("gen-11", 3, 0xdd03a2899cda1034, 6485, 0x9c545008a0d31c32),
    ("gen-12", 3, 0xcba6fc42c91a6889, 6489, 0x23f05c210ae761ba),
    ("gen-13", 3, 0x5ca126f514ff0eeb, 6513, 0xa344e4bfcded463b),
    ("gen-14", 6, 0x5d710e9daa6e5d95, 6623, 0x7b73469d34593dc4),
    ("gen-15", 6, 0xbc1902391b69f9bd, 6617, 0x889e42ce5a61520c),
    ("gen-16", 10, 0xbf587a04e4a4f318, 6716, 0x624be30b76f29c08),
    ("gen-17", 3, 0xf663bf89ab0d3ad7, 6525, 0xe69cdee0338d0769),
    ("gen-18", 5, 0x802375269fc752d1, 6594, 0xafd942d986f25c3a),
    ("gen-19", 4, 0x6b8367a6fd57a4d2, 6609, 0x6ad2dafb99847da3),
    ("gen-20", 63, 0xf305a397c4f82dc1, 7587, 0xe5dd7459afab4154),
    ("gen-21", 2752, 0x48a8f71f7c3347dc, 87500, 0x68b8e977cd22e442),
    ("gen-22", 7, 0x2b10434b9ed63eb5, 6559, 0xd989b14db2c84feb),
    ("gen-23", 18, 0xaaed02377b8d4688, 6799, 0xc0a35922b34eb61d),
    ("gen-24", 14, 0xf096db1d14adf91d, 6936, 0x0e8afbbfdf5fb96e),
    ("gen-25", 3, 0xcba6fc42c91a6889, 6489, 0x23f05c210ae761ba),
    ("gen-26", 4, 0x4ce197198c837495, 6581, 0x6ca6167bc96de553),
    ("gen-27", 4, 0xab499019c1bcce90, 6560, 0xb7a1a6cd783448d4),
    ("gen-28", 3, 0xcba6fc42c91a6889, 6487, 0x11c82f3304170979),
    ("gen-29", 4, 0x03feea0b5a73f8d4, 6561, 0x95b571581ffc064d),
    ("gen-30", 5720, 0x6b7d4120b35a7595, 186710, 0x75ec15158e75d9fb),
    ("gen-31", 3, 0xee8cec89a6d82bb6, 6485, 0x6997cce98cbf195b),
    ("gen-32", 1673, 0x34bb053b18937936, 53955, 0xd5fdd39dbdfa06a0),
    ("gen-33", 3, 0x7a63247945131fed, 6487, 0x0ee9a1c181f32c62),
    ("gen-34", 3, 0xe5b3ed89a1c7dbfd, 6504, 0xcf85c5a734ac71d4),
    ("gen-35", 5, 0x14dfc15c6d3aa92b, 6537, 0x70d08908213197d3),
    ("gen-36", 679, 0x1bae1be639aa7101, 23814, 0x0d22379f4d59afae),
    ("gen-37", 6953, 0x91a6858808d4a982, 235720, 0x743560127b2c5af1),
    ("gen-38", 6, 0x105b0d717bc816d7, 6553, 0xdbf7d207d15bca25),
    ("gen-39", 3, 0x8b3ce14853d05025, 6608, 0x7c604d6a17245efd),
    ("gen-40", 4, 0x8d262d14e6755fa7, 6524, 0xcaf30bc1954efad9),
    ("gen-41", 3, 0xee8cec89a6d82bb6, 6483, 0x96680cb23e7fead7),
    ("gen-42", 3, 0xa83144897eb154be, 6485, 0x9c950b4cccb5ea99),
    ("gen-43", 4, 0x44314c198795a8cc, 6518, 0x08b3e6db9a743038),
    ("gen-44", 335, 0xa7daed0f35d7c743, 14527, 0x6a39b794ad4afd4a),
    ("gen-45", 7870, 0x39b741e222c20b65, 247132, 0x5f6f9988c6467e38),
    ("gen-46", 492, 0x8f0f0b0752099aa7, 19151, 0x48abb9949d6081fe),
    ("gen-47", 353, 0x3c140a6309e0d6b5, 15087, 0x672c31de54ce5052),
    ("gen-48", 1963, 0x32a5aa81d36d4134, 66331, 0x8097c1c50b40bf19),
    ("gen-49", 40, 0xd1e9a42746209178, 7397, 0x6bc5d1f3255f97ca),
    ("gen-50", 23, 0x26380594fc96e91f, 7013, 0x382c965cc263ea06),
    ("gen-51", 4, 0x8d262d14e6755fa7, 6524, 0x7e85c5efdf2c9df3),
    ("gen-52", 3, 0xff065e89afef5800, 6485, 0xf5b00e4dc05724e2),
    ("gen-53", 15, 0x78ba2a0972d96efd, 6765, 0xe190d2b414806bc5),
    ("gen-54", 1012, 0x35e6927bccbecda8, 33757, 0x14d7f1d59f4a9c1e),
    ("gen-55", 1829, 0xc1482ab4499a1018, 61554, 0x8045a82b8399656b),
    ("gen-56", 3599, 0x000e5f4df7b43290, 108364, 0xfa4786a099b23be6),
    ("gen-57", 3, 0x9fc4e58979fd33c5, 6483, 0x360126f2158fe71a),
    ("gen-58", 238, 0x0e2330e87c05c972, 14002, 0x8a50e02442ebf515),
    ("gen-59", 3, 0xf663bf89ab0d3ad7, 6504, 0x3cbb80b9c1d6a022),
    ("gen-60", 4, 0x8d262d14e6755fa7, 6625, 0xe6254a40c2a70057),
    ("gen-61", 3, 0xd3877389973f0d9b, 6546, 0x2f38a18c46d6f42b),
    ("gen-62", 4, 0x8c28c4a2b018bbfd, 6609, 0x3fc60efb9a3f0e7b),
    ("gen-63", 4, 0x1b4c5658128c8d5f, 6521, 0x23573b1d14a0f113),
    ("gen-64", 1537, 0x505ee75c0a707362, 49470, 0x2dc0d4e25dceca5c),
    ("gen-65", 838, 0x14c42163449029d4, 28901, 0x10ceca7ee387e2ff),
    ("gen-66", 32, 0x5e4ac153aa9b1435, 7124, 0x70dad71cccb4e6f4),
    ("gen-67", 6, 0x0c639bb63c650315, 6547, 0x3d98146ff20bfdce),
    ("gen-68", 4863, 0xeba0614db788eb7b, 164722, 0x8bb223dddd574717),
    ("gen-69", 6, 0x6f7c950ea3672dec, 6606, 0x6cbb64fb5256d1da),
    ("gen-70", 3, 0xe7ca03ceab10ed2b, 6487, 0xbe1947cb2dd69117),
    ("gen-71", 8, 0x205eb5c0c7483920, 6584, 0x3c58b6c1e5bd7c28),
    ("gen-72", 27, 0x53acaafd3abc5799, 7128, 0xd666f579b7565f8b),
    ("gen-73", 4, 0x6f879319a0238a71, 6579, 0x2a73b100da850978),
    ("gen-74", 3, 0xff065e89afef5800, 6525, 0xd581fe5ce6e48cb8),
    ("gen-75", 3, 0x10fc7889ba49f3d2, 6483, 0x61688b8dcc3e833b),
    ("gen-76", 3, 0x1918534ee464ba3a, 6526, 0x210112427debe67c),
    ("gen-77", 4, 0x4c2b953164de1233, 6628, 0x9f7355e2702fe654),
    ("gen-78", 1509, 0xc9c970c5cfd1ce96, 50837, 0x187dccd7a74c1ef7),
    ("gen-79", 14, 0x28b32799d8d84f8a, 6816, 0xe7ff86b9cc450600),
    ("gen-80", 2303, 0xd739e5e2b175f089, 77706, 0x80f38e5c221b6cbc),
    ("gen-81", 7691, 0xa00057bdbbc99328, 232645, 0xdb87551b03732e66),
    ("gen-82", 24, 0xf5c34acf35d7be6f, 6948, 0x927ef684bb8859cf),
    ("gen-83", 12, 0xa981c49122565080, 6834, 0xee7ac6f0c77f17b8),
    ("gen-84", 8, 0x4e491bfbcb6e89bd, 6663, 0x0fbb625ed18f2cd4),
    ("gen-85", 4, 0xbb0988507125b049, 6609, 0x63d381c19624549a),
    ("gen-86", 8, 0x051e907d3de76024, 6627, 0x97ab582642347f1a),
    ("gen-87", 6, 0xeaacff781e7d8eb6, 6595, 0xad21309c4f853f0a),
    ("gen-88", 4, 0x65286b3120e8144c, 6602, 0xd532866ff367300b),
    ("gen-89", 3, 0xff065e89afef5800, 6485, 0xf5b00e4dc05724e2),
    ("gen-90", 3, 0xbd5fc2de43fe15fd, 6484, 0xe790ad0353b705b4),
    ("gen-91", 5, 0xb8ec5b8cca86d10c, 6524, 0x8951831ff6702412),
    ("gen-92", 8, 0x6e579aa87f36a4aa, 6602, 0xe858eb7ee79e0c9a),
    ("gen-93", 380, 0x5a77f3c5335d2f39, 16070, 0x9deb4a6fe62a8230),
    ("gen-94", 5, 0xac1a0907c75ea37c, 6604, 0xc2888d6706411ea9),
    ("gen-95", 111, 0x871d00e16b629b34, 8961, 0x8c8c5a611af8566b),
    ("gen-96", 10, 0x8fbb7ea4b390e9be, 6630, 0xe7e31df81c718879),
    ("gen-97", 4, 0x03aa58a1c8bc88ec, 6604, 0xa44aabc94b640691),
    ("gen-98", 7129, 0x1ab5408666530e1e, 251135, 0xe7f0ee9ce222e18e),
    ("gen-99", 74, 0x7a76ffe4171e2761, 7936, 0x803ea299dcb3adb9),
    ("gen-100", 4, 0x1252942022d6af56, 6540, 0x910b0157f94ec611),
    ("gen-101", 3, 0xcba6fc42c91a6889, 6489, 0x2f191142d290f973),
    ("gen-102", 3, 0x8b3ce14853d05025, 6547, 0xec279c33da5e589c),
    ("gen-103", 3, 0x4d22bba2bd3e387b, 6505, 0xd02883e582371522),
    ("gen-104", 521, 0x62852c17b08fefc1, 19298, 0x9f634491e9ac59bd),
    ("gen-105", 10, 0xc143938978691a01, 6691, 0x23c7476ad790c0c2),
    ("gen-106", 4, 0x8d262d14e6755fa7, 6585, 0x38599c0f9f0f3426),
    ("gen-107", 21, 0xacac298a95aed476, 6867, 0x5e4c0432a6f3ce24),
    ("gen-108", 1596, 0xdfc724833edbab56, 51252, 0x2e51143503c7f3ae),
    ("gen-109", 3, 0x3bbd786a55cd03fa, 6483, 0xfe9f9398b54edcef),
    ("gen-110", 1084, 0x405b66e1969238e1, 34631, 0x821c0df22fa4ce8a),
    ("gen-111", 6, 0xb3f3f54f302c9cef, 6654, 0xe853be889058d6c5),
    ("gen-112", 180, 0x65d930dab5c46b77, 10662, 0x473ece65bbf3566f),
    ("gen-113", 3, 0xff065e89afef5800, 6485, 0xb85d49a10cf1a74c),
    ("gen-114", 368, 0x47dec528be0518b9, 15296, 0x713c5a29afba16f1),
    ("gen-115", 3, 0xcba6fc42c91a6889, 6489, 0x3c096ea097e4d7c7),
    ("gen-116", 1451, 0x0c35aee807558549, 47728, 0x00619a7dbfe425de),
    ("gen-117", 3, 0x0859c989b567bb79, 6485, 0xa70af107e1b3f241),
    ("gen-118", 4, 0x34c2202036487772, 6538, 0x981233a3987ead0f),
    ("gen-119", 4, 0x8d262d14e6755fa7, 6524, 0x435575f984234577),
    ("gen-120", 22549, 0xcb2db2b97531ac1f, 826144, 0x14f568aeda41626a),
    ("gen-121", 7, 0xd93389035b6492d0, 6632, 0x2a1fdd3d13404198),
    ("gen-122", 3, 0x113725081074db52, 6505, 0xae98bc706be9b749),
    ("gen-123", 4, 0x54747619907ecb4e, 6581, 0x07bfa911e6df4fd3),
    ("gen-124", 4, 0xed415b5cc584379b, 6520, 0xe77fab053645fbd5),
    ("gen-125", 4, 0x5d24a919956c6e4f, 6560, 0x5500735b3513c024),
    ("gen-126", 4, 0x83b1775f1976d56c, 6518, 0x96e627cc2324cd19),
    ("gen-127", 1931, 0xa4994bb4d3f7cf86, 63488, 0x8497d898d4a58280),
    ("gen-128", 4, 0x44314c198795a8cc, 6581, 0x003bc4b45b8f23fe),
    ("gen-129", 7, 0x33a19566e88061b8, 6591, 0x8bb2265071fb6953),
    ("gen-130", 19, 0xb55355f2343397e3, 6822, 0x035cec68305dcc3d),
    ("gen-131", 3, 0x8b3ce14853d05025, 6547, 0xec279c33da5e589c),
    ("gen-132", 20, 0xe3782f971db72fe7, 7220, 0x32385ad251da2748),
    ("gen-133", 11, 0x6a9eda061c5a8e73, 6721, 0xc9103f11cb46a1dc),
    ("gen-134", 31, 0xabe28c4c51073744, 7636, 0x4a3e471b48977c7f),
    ("gen-135", 4, 0x94ef4c14ea9eb290, 6522, 0x3394a8e6408f61ed),
    ("gen-136", 3, 0x3bbd786a55cd03fa, 6483, 0x3a75327b9ad8fd25),
    ("gen-137", 4, 0x86b7e00d8ff94a0c, 6520, 0x4f961e12aa3b9769),
    ("gen-138", 7, 0xac7753fab060777a, 6604, 0x2005ce8be1bab04a),
    ("gen-139", 3, 0xcba6fc42c91a6889, 6489, 0xef1e1853ca7deb04),
    ("gen-140", 283, 0xf4e88e2993302510, 13207, 0xa958b56250df5e8f),
    ("gen-141", 4, 0x94ef4c14ea9eb290, 6524, 0x3988ededa620d7af),
    ("gen-142", 3, 0xcba6fc42c91a6889, 6489, 0x7b86571488b35659),
    ("gen-143", 3, 0xff065e89afef5800, 6525, 0x93ccfb6c84cc99d5),
    ("gen-144", 6, 0x8d5296ba9b3c7d6e, 6562, 0x1c751cb310fd47a0),
    ("gen-145", 14, 0xe0fd6e3b6f16ecd2, 6781, 0x03c918ff82280044),
    ("gen-146", 5566, 0x47af3201fe2eff76, 183911, 0xbfb46381d8f520ec),
    ("gen-147", 4, 0x8d262d14e6755fa7, 6583, 0x9f2eefc58199d494),
    ("gen-148", 4, 0x94ef4c14ea9eb290, 6522, 0xd7c446fadbd180f0),
    ("gen-149", 7, 0x62f5a9fc1d899175, 6648, 0xd6ecfb2b974ecd45),
    ("gen-150", 1522, 0x56d415cebd7b9303, 50627, 0x39b9a3190d3fbca5),
    ("gen-151", 5363, 0x675602b2a719542c, 170476, 0xdf69495162f9854c),
    ("gen-152", 1879, 0x0a15cf50ccb8bbcd, 59905, 0xdd97f604ebbf42a5),
    ("gen-153", 4, 0x8d262d14e6755fa7, 6543, 0x3c7acd125f375f88),
    ("gen-154", 18, 0x2ddf7b18b5f2fad8, 6942, 0x8ff611faec1e30cf),
    ("gen-155", 4, 0x83b1775f1976d56c, 6619, 0x1b93ca6114b370ae),
    ("gen-156", 4, 0x8d262d14e6755fa7, 6543, 0x8cee96fe1ef38fee),
    ("gen-157", 4, 0xa3807119bd937ba7, 6560, 0x52650151aef0e57a),
    ("gen-158", 11, 0xc24076fcd5e4765d, 6671, 0xd0ff23899f47ae21),
    ("gen-159", 4, 0x8d262d14e6755fa7, 6524, 0x842372a1b340260a),
    ("gen-160", 3, 0xcba6fc42c91a6889, 6489, 0xef1e1853ca7deb04),
    ("gen-161", 22, 0xc3a2bbd6c26e2427, 7009, 0xe2496a7095a8ccc9),
    ("gen-162", 10159, 0x33c585fa427771e1, 342649, 0x2a0da18881f6ace5),
    ("gen-163", 3300, 0xce071a436a2932fe, 106496, 0x0f2db12292d47b81),
    ("gen-164", 4576, 0x7ca4d82229763c23, 146624, 0xd7b6b284d8d036f5),
    ("gen-165", 3, 0xff065e89afef5800, 6485, 0xb9d8c1689c65e98e),
    ("gen-166", 12, 0x37fa4defd4dc5fc0, 6785, 0xc90732ae0afce9aa),
    ("gen-167", 14, 0x37c3ab57b737af4e, 6721, 0x09f28f3c198b36fa),
    ("gen-168", 3, 0x0859c989b567bb79, 6504, 0x28e647c91445551d),
    ("gen-169", 4, 0x54747619907ecb4e, 6520, 0xa24900aa42284d9f),
    ("gen-170", 163, 0x38a7d12fb04e16ac, 10227, 0x5c5af328f82c9676),
    ("gen-171", 4, 0x54747619907ecb4e, 6520, 0x4a67112742ae42b2),
    ("gen-172", 3, 0xcba6fc42c91a6889, 6489, 0x2f191142d290f973),
    ("gen-173", 1071, 0x44a0b267a4b997a2, 38688, 0x926f9c82469fc5fc),
    ("gen-174", 20, 0x5a4e6699ffc00d47, 6793, 0xcb1484fde81b33bd),
    ("gen-175", 4, 0x66a0e8199b078c18, 6520, 0x0d5e23526d9aef35),
    ("gen-176", 21, 0x23ea99c6ea91d9f8, 6805, 0xdd808419ff3cdf8c),
    ("gen-177", 8, 0xcfb76b3b247f587a, 6602, 0xc1950500850ef421),
    ("gen-178", 6, 0x90a0d0e7ff132d4f, 6561, 0xc484222aef43e3a8),
    ("gen-179", 14837, 0x2d4daf5ac342b125, 569118, 0xe09d15355071d871),
    ("gen-180", 4, 0x6143069381a5a13c, 6559, 0x82466c7cffc95eb1),
    ("gen-181", 3, 0xcba6fc42c91a6889, 6489, 0x400a339f7dec4b86),
    ("gen-182", 205, 0xfe17dd3fcdc297db, 11127, 0x7f686344b2d3b220),
    ("gen-183", 4, 0x7b905eecc548c322, 6588, 0x6a2f9dc9b4cda7e3),
    ("gen-184", 9, 0x401d71e5fe8be087, 6634, 0xaf7b9e2f0c135fbe),
    ("gen-185", 10, 0x24a4b8dd138715f3, 6612, 0x17c07c55dc7bd36b),
    ("gen-186", 9040, 0xcd367e0c78aa206f, 309232, 0x5c9804680668d1e3),
    ("gen-187", 4, 0x8d262d14e6755fa7, 6524, 0x8b156bc4c2cca367),
    ("gen-188", 1438, 0xa5d4bfa829b5ad62, 47979, 0x9059c556d77e32b3),
    ("gen-189", 9, 0xb9c33fbc95229f05, 6660, 0x2b37724282891c07),
    ("gen-190", 8, 0xfa6442af92bd795c, 6743, 0x0a29e65feef47a0b),
    ("gen-191", 4, 0x94ef4c14ea9eb290, 6543, 0x7ea1c446fc2517bc),
    ("gen-192", 1887, 0x3f6c24f1a3efe700, 65187, 0x17235f3ff22b8e5d),
    ("gen-193", 3, 0x10fc7889ba49f3d2, 6546, 0x5e3a02d7d6ebc868),
    ("gen-194", 4, 0x8d262d14e6755fa7, 6585, 0x4b71cbc1d93760a5),
    ("gen-195", 20, 0x1921df8a7c93553d, 6962, 0xb5915d2180a6b4ed),
    ("gen-196", 408, 0xb8632b38030fae2c, 17195, 0x405b28c5e0ff0a70),
    ("gen-197", 3, 0xcba6fc42c91a6889, 6489, 0xef1e1853ca7deb04),
    ("gen-198", 5, 0x29a62123473385c4, 6640, 0x8b50c47b9f5d3361),
    ("gen-199", 3, 0xcba6fc42c91a6889, 6489, 0xef1e1853ca7deb04),
    ("gen-200", 4, 0x94ef4c14ea9eb290, 6604, 0xbbbf71252e1f2381),
    ("gen-201", 4, 0x1e50b5a1d804e2ef, 6562, 0x737a4013e7629f0a),
    ("gen-202", 4, 0x86b7e00d8ff94a0c, 6520, 0xa05a13536daf350a),
    ("gen-203", 8, 0x66901f388839d504, 6602, 0x5a27f82134a4c952),
    ("gen-204", 3, 0x776ef9069f137357, 6574, 0x8d37328c3ca324e1),
    ("gen-205", 3, 0xe5b3ed89a1c7dbfd, 6485, 0xa22a45e9af3527b9),
    ("gen-206", 4, 0x54747619907ecb4e, 6518, 0x1cbe6c5119fc4983),
    ("gen-207", 4, 0x4ce197198c837495, 6579, 0xf836a8916564d168),
    ("gen-208", 4, 0x03616ec3c2cfdeea, 6580, 0x354403887efdbfb0),
    ("gen-209", 3, 0xab3348de3975479b, 6547, 0xa850e8490b609309),
    ("gen-210", 4, 0x8d262d14e6755fa7, 6524, 0x17834bed6a0585b1),
    ("gen-211", 4, 0x54747619907ecb4e, 6581, 0x6d94564d6255f84d),
    ("gen-212", 14, 0x64e06e8c1166afc4, 6837, 0x203ffef8a7fed2ba),
    ("gen-213", 34, 0xd0ab08e41222c271, 7233, 0xd019e990c9f70386),
    ("gen-214", 3, 0xd3877389973f0d9b, 6525, 0xd9a14a5c434c4463),
    ("gen-215", 14, 0x8afcfb06f069c83a, 6724, 0x00bcc974b2e0e2b6),
    ("gen-216", 6, 0xc74d0bb4b593ce73, 6574, 0x6161c3be2966b51e),
    ("gen-217", 5, 0xa6da5530fb6fca6d, 6573, 0x34dbdf5f30d5b6be),
    ("gen-218", 4, 0x94ef4c14ea9eb290, 6524, 0xfd42f2affa4274d8),
    ("gen-219", 13688, 0x79c5f6e66c3c99db, 512029, 0xfe0efc2575f6b4ce),
    ("gen-220", 8, 0x829ed98361efbbde, 6623, 0xe43213ebb29f81d2),
    ("gen-221", 4, 0xf4db3c087153287e, 6557, 0x3f41862f48a00a32),
    ("gen-222", 12, 0x58932d9e4b3e80fd, 6680, 0x3d08f15dbafe927d),
    ("gen-223", 990, 0xe87380ab4f5d70f4, 33201, 0x0369f26d27143c8d),
    ("gen-224", 4, 0x89e4147961938919, 6521, 0xd4c17f1846e4456e),
    ("gen-225", 219, 0x31958d2c14d92df5, 11458, 0x289b6ab17c3d065d),
    ("gen-226", 1951, 0x24295d5083435781, 59912, 0xf6494ffb4c3678dd),
    ("gen-227", 15326, 0x2284cf2b48e2bead, 540658, 0xd18d016862929900),
    ("gen-228", 3, 0xe5b3ed89a1c7dbfd, 6485, 0x26a159d5c114abe4),
    ("gen-229", 2373, 0x2e2a62c5cf844b59, 70903, 0x17165da75bb39147),
    ("gen-230", 1448, 0xe51c7b11574f4eb1, 47840, 0x336b9622f90876d3),
    ("gen-231", 3, 0x9fc4e58979fd33c5, 6485, 0xf34c305736089a1c),
    ("gen-232", 3, 0x9fc4e58979fd33c5, 6485, 0x682571533b490d91),
    ("gen-233", 977, 0x906c6e546a749e09, 31548, 0xc0e226c5f74a66a5),
    ("gen-234", 3, 0xa83144897eb154be, 6485, 0x5b5ef8001823313d),
    ("gen-235", 553, 0x64f68a886f978529, 19948, 0xbaf80ae9149c5341),
    ("gen-236", 313, 0xa36d719329edd99c, 14209, 0xaf653abb42469f95),
    ("gen-237", 3, 0x7ed0ec88196f6dbb, 6485, 0xe615f44c2fbad57c),
    ("gen-238", 7, 0x4109e1bcd4476590, 6699, 0x187ce4d16bfcf64e),
    ("gen-239", 8, 0xf752447d015bd12e, 6656, 0x36dc75197abb0dfb),
    ("gen-240", 4, 0x66a0e8199b078c18, 6579, 0xa8635019d9d62fca),
    ("gen-241", 3, 0xd3877389973f0d9b, 6546, 0x929269006e83f2ab),
    ("gen-242", 8, 0xf7562be191eacb46, 6585, 0xcd7430139114bbe1),
    ("gen-243", 3, 0xee8cec89a6d82bb6, 6483, 0x96680cb23e7fead7),
    ("gen-244", 8, 0xf7562be191eacb46, 6585, 0x0adb6cf98259455b),
    ("gen-245", 18, 0x54e792189083967a, 7122, 0x5b9c84ad8ae3ff01),
    ("gen-246", 8, 0x4f38cadb480444e1, 6594, 0xc950dddd8c845ead),
    ("gen-247", 4, 0x6952cb4c9eba4552, 6588, 0x9ed972b006544420),
    ("gen-248", 4, 0x5a289a499e2a77f2, 6623, 0xffdb3650fa631a4e),
    ("gen-249", 3, 0x3bbd786a55cd03fa, 6483, 0x3a75327b9ad8fd25),
    ("gen-250", 4, 0x54747619907ecb4e, 6520, 0x32ac4fab5bee1065),
    ("gen-251", 4, 0xa3807119bd937ba7, 6520, 0x55cbe15bb6a42a4f),
    ("gen-252", 17, 0xbb1ff6296482e0f8, 6989, 0x211f6cc11e2ad36e),
    ("gen-253", 5, 0x7d639a823e96e71f, 6531, 0x390a42815364e42d),
    ("gen-254", 6, 0xf356ad21023f7bb5, 6572, 0xb1055ab658a23eb9),
    ("gen-255", 23, 0x8d4490a2d1cd4283, 6933, 0x8b598c8dc9cea3f7),
    ("gen-256", 3, 0xf663bf89ab0d3ad7, 6483, 0xd475a8364490e784),
    ("gen-257", 149, 0x05f837675583f432, 9935, 0x43392e56a59bccd0),
    ("gen-258", 3, 0xe5b3ed89a1c7dbfd, 6504, 0x8b0018697bc93f06),
    ("gen-259", 4, 0x8d262d14e6755fa7, 6524, 0x4e40b6c5866f08a6),
    ("gen-260", 5786, 0x10c6f1a187ca4091, 178699, 0x418777b76100b221),
    ("gen-261", 5, 0xf788ade322462b29, 6523, 0xf01b31b51ff5f703),
    ("gen-262", 20, 0xd08ffa6040665726, 6876, 0x0470ff29b64418ff),
    ("gen-263", 17, 0xf9f780cb2d8a4a90, 6894, 0xc55c12f49de519fd),
    ("gen-264", 17, 0x8cfe8ebca0b54800, 6891, 0xd64a8f52a824a7ea),
    ("gen-265", 1275, 0x1a1975858d4708cc, 41516, 0xb123cbedb00baaab),
    ("gen-266", 9, 0x647933949b2b0817, 6594, 0x8ee57ab84be4481f),
    ("gen-267", 3, 0x8b3ce14853d05025, 6547, 0x594a9760007a579f),
    ("gen-268", 2254, 0x8f762886817a3788, 73213, 0xdc7e3beb4d49f79c),
    ("gen-269", 11, 0x030128663da173b2, 6681, 0xcd85e3486e9ca038),
    ("gen-270", 3, 0xcba6fc42c91a6889, 6489, 0x3c096ea097e4d7c7),
    ("gen-271", 6, 0xae9f6abefce576c2, 6559, 0x763631cf8f60e076),
    ("gen-272", 9, 0x5a6852c7f7499f08, 6596, 0xea8888297dd8a5de),
    ("gen-273", 3, 0xcba6fc42c91a6889, 6550, 0x72fc19a64c903149),
    ("gen-274", 4, 0x66a0e8199b078c18, 6520, 0xd239731b7bad0d3b),
    ("gen-275", 3, 0xee8cec89a6d82bb6, 6485, 0x2c3090039b7a8fe1),
    ("gen-276", 5, 0xfa74446fe6933c19, 6531, 0xc0df2004e82b8ef1),
    ("gen-277", 3, 0x43fe83d572679549, 6547, 0xe9fb5b105b0ae47b),
    ("gen-278", 5, 0xa0ca314b6c47521b, 6546, 0x76c3b075fdaec72e),
    ("gen-279", 3, 0xc638c1de490e65b6, 6484, 0xf29447255d5d6931),
    ("gen-280", 3, 0x10fc7889ba49f3d2, 6485, 0xa4bfa052b8bd41f4),
    ("gen-281", 5309, 0xbedeae3f87cd4a89, 192692, 0xd09e9370a1f82572),
    ("gen-282", 4, 0x94ef4c14ea9eb290, 6585, 0xf60529ff553b8c85),
    ("gen-283", 3, 0x3bbd786a55cd03fa, 6483, 0xfe9f9398b54edcef),
    ("gen-284", 3, 0xe5b3ed89a1c7dbfd, 6525, 0x97eb164e3d3cf80b),
    ("gen-285", 3, 0xe5b3ed89a1c7dbfd, 6485, 0x6f5b7f2a05f944e6),
    ("gen-286", 5, 0xc12f0af6f4eba05c, 6584, 0x5914c6aca08ac951),
    ("gen-287", 12, 0x228556e450eb80e3, 6681, 0xab1cdd7b337262d2),
    ("gen-288", 14, 0xfd5cd9f5a7bdab44, 6701, 0xbcaed4cf71bfca2c),
    ("gen-289", 11, 0x671f6d49a4234fc9, 6740, 0xa97e6a74c14e5c1c),
    ("gen-290", 3, 0x0859c989b567bb79, 6546, 0x0e808ca64169c082),
    ("gen-291", 3, 0x1918534ee464ba3a, 6526, 0x1950752017c98af5),
    ("gen-292", 3, 0xff065e89afef5800, 6485, 0xb85d49a10cf1a74c),
    ("gen-293", 3224, 0x4926b161125a9657, 106528, 0xc700b3c95ed8fbdf),
    ("gen-294", 1287, 0x89822d2885d6e24a, 41190, 0xf3fe7843d86403d5),
    ("gen-295", 34, 0xc2709ec189b1cd53, 7112, 0xceee0b6c9fdb3a17),
    ("gen-296", 3, 0x06f2de9c58607523, 6509, 0x0821d3d51235d377),
    ("gen-297", 4, 0x94ef4c14ea9eb290, 6543, 0x4d40b0689c3d5d4d),
    ("gen-298", 3, 0xf663bf89ab0d3ad7, 6485, 0x5f328ccaae045e31),
    ("gen-299", 3, 0xf663bf89ab0d3ad7, 6485, 0x2202cc9b8dac2bbe),
];

/// `(program, steps, allocs, calls)` from `VmStats` at bench inputs.
#[rustfmt::skip]
const VM_WORK: &[(&str, u64, u64, u64)] = &[
    ("deriv", 173363, 48460, 20467),
    ("tak", 270337, 95412, 79510),
    ("cpstak", 181040, 47707, 79511),
    ("takl", 191205, 21263, 57174),
    ("fibclos", 123973, 35421, 53131),
    ("cps-append", 202031, 98647, 98005),
    ("queens", 401785, 96376, 93518),
];
