package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// sha256Hex is the hex SHA-256 of b.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// jsonDigest is the hex SHA-256 of v's JSON encoding.
func jsonDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return sha256Hex(b)
}

// instanceDigest hashes everything a compiled instance hands the
// engine: queue names and capacities, task fields down to the float
// bits, wiring indices, source/sink configuration, core count and
// whether a modulator is attached.
func instanceDigest(inst *Instance) string {
	h := sha256.New()
	g := inst.Graph
	for qi := 0; qi < g.NumQueues(); qi++ {
		q := g.Queue(qi)
		fmt.Fprintf(h, "q %s %d\n", q.Name(), q.Cap())
	}
	for ti, t := range g.Tasks() {
		fmt.Fprintf(h, "t %s %x %x %x %x %d %v %v\n", t.Name,
			math.Float64bits(t.FSE), math.Float64bits(t.CyclesPerFrame),
			math.Float64bits(t.StateBytes), math.Float64bits(t.CodeBytes),
			t.Core, g.Inputs(ti), g.Outputs(ti))
	}
	sq, sp := g.SourceConfig()
	kq, kp, kf := g.SinkConfig()
	fmt.Fprintf(h, "src %d %x sink %d %x %d cores %d mod %v\n",
		sq, math.Float64bits(sp), kq, math.Float64bits(kp), kf,
		inst.Platform.NumCores(), inst.Modulate != nil)
	return hex.EncodeToString(h.Sum(nil))
}

// builtinGolden pins one builtin: its canonical spec hash, the SHA-256
// of its whole spec's JSON (labels included) and of its catalogue Info
// JSON, and the digests of its compiled instance under default options
// and under a queue-capacity override.
type builtinGolden struct {
	specHash, specJSON, info, compiled, compiledQ5 string
}

// builtinGoldens were captured from the builders the spec emitters
// replaced; a builtin that changes any byte of its spec, catalogue
// entry or compiled graph fails here.
var builtinGoldens = map[string]builtinGolden{
	"bursty-sdr": {
		"e2f0dcc29d0b2cc22cda6cba3719a03dec5f0ad5d39f26f10ebe207b4cf5b38e",
		"f0649176e547954075698e028a2713e59aa752f630fd41bfc6d00d4695620290",
		"c6fd647d79f8ce7acd378ffdf38b1eed1262c0f2fb32fc177bd504fde79057aa",
		"bc4f076441eacaa64ef9a3992e1b4e304366a5628a60ca9ad8e7fb0ec160392d",
		"ea47afd5ab2ae19e6f41e2b3e1d9ec7d523fbbdc675d81aeb796a6aa147e335e",
	},
	"fanout-w4": {
		"5d348e1f6fe91a87c4d79e003baa0f4c6bd0feb32a759603f90faf7e27604d19",
		"77a97e4c2143e0d8cc205f95e24aeb53403943352043516731e2adbcc00b4398",
		"80ceb23d322050f61333f97d66bb26e1798592f7508739e513b1e21b1ac7ab0e",
		"2dc27b28a9ef2acc412fc3eeb26348dbb4a03ffac19404f6fcfc5fc8170ae710",
		"f3fad0157aa274c85435435ec5e5b2c3142e29ffbb25206cdd868cb3ca69f54c",
	},
	"fanout-w8": {
		"709da412a4fd6a8ebcb75fecbfeb2612cc37e49b8ce9b06e24196cf6fef4ee70",
		"c61c57a052dff085d2c80a51ff29d4204dc6aa5f19448f92b96c7d6ee1271a81",
		"cc4d7b6ae4690e1a653db8569432e02645d6eb4691a232bf75901b8ae1bf4140",
		"7818e20e0307595732d44f7ff7264378fbab2acfde45e39d68e7256d3691e492",
		"c7d1ab6846567ad9b2edda1a9498a6f3e2eaf5c796be225a3d628bb5f613b302",
	},
	"manycore-128": {
		"40672930117ec1d2dd1db17d9fbfe27780f438a28dcba549ddf530fee1c13d38",
		"992cd9301976518c6300ed625c25dec94de1f614e4ce73ef40802621387f4c6c",
		"9eb3efdb74064dca2e720cea4d5fb724edc7840ae0cb1f9233e350dbf419a561",
		"199f2079c0e9e1f0f31fc961ca329fa62c6df9e44304e4fc15f4d9a5da72420f",
		"953c3727f4954fad7277b4286136c823e80dede551d14045ab06e8bf37897a1c",
	},
	"manycore-16": {
		"427532f415cee46806fa35888a26a0becd2d363c6c37575ce402f0f1c9b59657",
		"4d1ae570adbaa3734b41193240e2743755526e3d6ec95c03a2efce0d2ee659d7",
		"d6e19c89a4d9909e30f85a8baee45f2d106c82cc091e93fb78fb08d6cb4e3dd0",
		"940cae28d26e0f2423a7c44585bdc58484a6a1817aed6e0f7e2f4c6057e61d37",
		"43f6efcc7807fc6615517f8540ce74d4ca581452d168cceb345fd190244dcae6",
	},
	"manycore-256": {
		"dc1a1b519b66f3f206db1fc1b1889cf29573fd5ed333e855a75e1d89a66db0bf",
		"60aeb9a25fb4f303efd6d170780813f9553fec49cfb0b07dab2c6db229a94cbe",
		"f67e76bd8601aa850dfb53a771c919bf1932395f195bb8d8ded49d46e64029d8",
		"19b8b9a1ec04ead3357f53a8f2fd19cfae7400bfb9487318e62869640a5dfa73",
		"574bc2da9775f422b5fc47da4af973ca00c74d8d63a82d35a4108be3955778a3",
	},
	"manycore-32": {
		"8645d4dbdbfdec892317864f8b29e21818b508891257e055d766df73b2bcea39",
		"f589387134e2be32eb59eeee1f09badfcb321dbd9f5c3fb58a0162dae5100519",
		"d40770d4d986d72750c1799eac855361bf8572ee04203674bd4194ab4d2ddc1a",
		"c128b2753b51036b5a615acb42047c12460e36b180e118aae2e3b451318b6093",
		"b899892f1a458f5fbfbb4986d8a9a969150cc9df65f8ffd46f4603c5169ff269",
	},
	"manycore-64": {
		"5ee41ddbdcb213f3b1de377560a040756fae1e0cc948514383ceb3551587014d",
		"648e67437a534859f5caef433acf82a153cce517b8c83fe3e2a05ec1d5abc98d",
		"519b40bb0c183fe783241fa55cf9186ee0d235b4ae2ffe292afabcea8a872a18",
		"2f1da8a1e59aaa80001c1978761c5879a4854fb70b9f74b1ef84ebfd98aa246f",
		"66e0039b98f8c31008563a60445eeeafdd747208b768877e0f9acd0ac1be5581",
	},
	"manycore-8": {
		"9fe97d439270f1f5cf28252311589342ee5f7ec346d97075b97bdc8d8740ed06",
		"2a6fd2595f698138012bc6571218d4734fd20a8b81822b6d4ba8357ba4b26cbe",
		"97726c4fdec64a068cc885b3d0996f2c1b0684a9bea718b384ad019ced0e38c0",
		"6458e59dc8a9d916e01aea01013128de43f56acb5923b72a4d6798c7683a8434",
		"e5dbf79c84a5abdf5228580e16a9b0f78a6ffdd68c6c9830bcb15f84cba6861d",
	},
	"pipeline-d16": {
		"8cdf70537a18135bea88d1f471b112d63a01786b875cd00168b918031b9f9811",
		"a06840d8afeb18e39df4bb8a7382818fe26c56bbc12f865329465be2dc46e249",
		"5ffe0466f38cdc0717fef4fece53711048744db42bab4e5226b085d942310c44",
		"1f4aa817ecaf609f15b3541e973b568d06464a84d3b2d029e50dff0b2803e37b",
		"518f7f6a9eb181301e2d40d832ae8c70d05ce9256f0d812d0d1809618254a8be",
	},
	"pipeline-d4": {
		"786f3bc6b48cada8cef3d5b0c015ebeec850c6b341d746430ae88badc90ee1cd",
		"8a206f0536bf0cdb2a40105fc3ea168bbf9434f3a8aa72329864ef08e6e91508",
		"e0d7f01a5135d43eeb406acdaf5c6aabb52f2b44fce339e69dabc08b7bbd75ea",
		"5b286c46fc79511924e95607dd960e0dbb44f822cbbe604455b26f1fe29826cb",
		"a9fbabb2d9903f6ae115747dbb8b26d34d89a63759fc7029a0b5ccb8059eec54",
	},
	"pipeline-d8": {
		"42eb663ba64d9d1cd4f89b89d3b6eec3e5be0ae0875908619de03800f848331a",
		"88e2540c968916e7034712352fd9bb76d0f7d10bd2f3de591681bf46d5454463",
		"9bfe96fe1b273b13e551667dee2d54e632ebeee748acb3bf892c7266b7261248",
		"8f45e5f85c47ed163e8e593089e523615a82828585f94fe6e86b27ca45a646e0",
		"ddaf16d8f5701ea207c20d9b49eb894a9eef32b81f6600fd65a2e71cf5187462",
	},
	"sdr-radio": {
		"b215d0767831c61751d0eab99acc4c71857337336ea1cd1b6b78c063a481d432",
		"e8d58f5619da8c45e9bbb81da112cf68c67f5bfda4250e3bf8113da11513d3f1",
		"411ee5d4dc4cf414966ad478cace3800bb92b4c5a94981bc41f888bff5d9c42c",
		"0133e9fc03dcdf15d1ecd7d45bf9e370229b47f4756041fbcdf24fca7ed1106b",
		"dfd175e49cb8cc4d74e45958525db1708db61f043bbab836e870ed5547fb5ce5",
	},
	"video-decoder": {
		"e34859ebe66e2e1211b7e20abae2d1a39aa57e487a11f9d95bfd011d15960624",
		"ae18e7054d50e49c51efd364f3de41aeecdbcaa83125bd02f770b419162fcf24",
		"756be4fa921f91e2289e3048c724bd086f9d206e8f2b6b15d5136aa0b020acf1",
		"c22cac300715efcfb5c9fde60c9b1edf737bf8469c0c38237ec7ee75cff7ec9d",
		"4684a5b1d71c54a23234db1b4e4d730f0b029b90468409114855c6ea4afada4e",
	},
}

// TestBuiltinSpecsCompileBitForBit pins every builtin bit for bit: spec
// content address and full JSON, catalogue entry, and the graph, platform size and
// modulator the compiler builds from the spec with and without a
// queue-capacity override.
func TestBuiltinSpecsCompileBitForBit(t *testing.T) {
	all := All()
	if len(all) != len(builtinGoldens) {
		t.Errorf("%d builtins registered, %d pinned", len(all), len(builtinGoldens))
	}
	for _, sc := range all {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			want, ok := builtinGoldens[sc.Name]
			if !ok {
				t.Fatalf("no golden for builtin %q", sc.Name)
			}
			var got builtinGolden
			got.specHash = sc.Spec.Hash()
			got.specJSON = jsonDigest(t, *sc.Spec)
			got.info = jsonDigest(t, sc.Info())
			for _, o := range []struct {
				opt Options
				dst *string
			}{{Options{}, &got.compiled}, {Options{QueueCap: 5}, &got.compiledQ5}} {
				inst, err := sc.Instantiate(o.opt)
				if err != nil {
					t.Fatal(err)
				}
				*o.dst = instanceDigest(inst)
			}
			if got != want {
				t.Errorf("golden mismatch:\n got %#v\nwant %#v", got, want)
			}
		})
	}
}

// generateGoldens pins Generate(seed) for seeds 1..32: the canonical
// spec hash and the SHA-256 of the whole spec's JSON (labels and
// default phases included).
var generateGoldens = [32][2]string{
	{"b18c75a3e7fb3ec4dfd60f6cd2001e1e4ccbb388e7eb2b50c289192d9706e119", "1802b7e024244b63332a1afdb23d3b6dc919ab20050f5ccae1752b50aff73505"},
	{"2ee774fdc7428b94fc4069202871c194efe02993038b25dca6a6a1abd47ec393", "c55d08524a7c853b7465b3d35ec02d36bb8b542ecf90f489b4aaa194ca6f1ccc"},
	{"a22fad630b6d2efefcd5ae1fcf8c115fdbbb0cc3fe2d6649d59fa7bde1906710", "49be567804f174c718548f23140aa54d453fa22a5d41326077806d131aaa3ed7"},
	{"904cdcc47de0023ac32af839e385b85f6838ab293555ed3158cf0481aaa33197", "92ed5f43dfd7a5ff155890837edeb3aec63f1bb505f8b4811df8b980916d3fe1"},
	{"d3146ab22eb7b9cf642ae8fdfe8cdc4bc04a75e24078dd46c0fc5cbc9b0e9dc7", "668b89163dc5f6568479c69657c55aa062cda2902db35cc034431fedb9b4b205"},
	{"e51662f0785ff5adfe224245cfb5ee3a6bc8b30b18e34c79cb19df9392bc2e1d", "f8b74382940583dd8af165e0881c4c0382f389915dd2e5a1555bccc707a854e2"},
	{"29400428301686d1d219c772f14cd5a559eb7d386e32424f1b1ab536661a3f02", "a2b34910d009e83dad3a6be9253b7853feef4759516e005245a6e546484a97f5"},
	{"bea8e94e66b0c1b924f7fa7a2a6e7bf1cef6a182b2530d115fae5b2fd72d227c", "89afae5ee664967192410916c1c75cf5edd2e11e717d8eab8c3e6a055fca0a47"},
	{"903c4f902abed675427342b1584f6c00450b71bc1004dd77e990b197d6377fde", "b9f3482f2f621a4583bf0983dab89098a28f49df90a6435476cf4eca77bc0653"},
	{"b3aff6574216596dbc856c393b416040c6f2dee408e4d125747947124e423f18", "0c2e9fa6761ef5a41e238b8666ae64e7c45867d60568d9a1a81e993dab4f12d5"},
	{"70bde0163ea1b17b6ced3d7cc8f60bc81685432b1b6229db0d8524da93b53b27", "127a7db9d636e683eaad5c87f153091df3c723186078fd1cc041b53728cdca6b"},
	{"01a9b276d8b47ed36ec1080eb12520d98640ff2de496e7f2bec10a8fd03f6e79", "461137a6e93b9eae0fa876078f88bda89daceeeaa22be32571f28f2da4844d7c"},
	{"d91504cb782fde982cdcb70854c5f8ee6308e161cf5a79df7b90a05755e9107d", "e34136df019fbb149eccc56c2a7473531d660ffd17b1d0c9669905dc7d04bbae"},
	{"d3d24124b0f2c52d019a723e1a1e8cfe6cfa0f62f399a3a91a44ed8b6655b172", "39833afaa1a258dc809db22dea2114a92dc548270debbefdc01ecc401a4b9156"},
	{"2a1a872491a55921779bd96b06371fee4fe0a03b15a4e69bab210243cd493a8a", "36a1895450828bd04d503dc296a11b3bc06470b690d169ad82629354ba2e0d1f"},
	{"31e8a0103812e609f3dd58aaa332a6bfc4fb7b4eabfa7241bc9b9a43f04a9e94", "89ff7c239a739875c648d23e9192756475cc8f23c4f357b91247936753198281"},
	{"f11128e5d2d0577edee8b2f02f573d71aa0105f6f6c88092a91de0a640ca756a", "5502394decd3fa829a7e8b32a69c986f2e6d99c0184983d65beeaf0c8c9eaade"},
	{"4a75747f747f3daa7d59e880ff67abcc80c995ffd950cdf0edc893289af33821", "efdf9b6991311b141ea5d7c7cf8c3cc984519e9549b66cfff56dc77420dc8851"},
	{"c6129605cbe37fdb3c478685538fcd57b6c1242f704320a09785179fc3d995fb", "4feb83ce0f487186be4888ce859e7e843aae7b9fd324d1d11664aff51cd4daf1"},
	{"a20da23dc58633ca53eed57cfbd889668642a18269832db0a3718e58f42fa954", "c606e9f9f8391c26a7280430823484b2a6bef6cb39b259ce57258ce72843001d"},
	{"7ecbef6b6442bbdc5d35ad15a75e54b527d6566d1caa81de2015b411cef99158", "02f203b5cbfe4bc7a06fe812d33b569712b653daf49be757b68c439fe421210f"},
	{"7a06ac80ce3b3705a52f90f25500798433eeaba56a27b0e5013ad93e78a50a2c", "b4c08eed31f7e28f54a7002b9a6467191357dccf7e1d9c3c95d9e8184fd81d78"},
	{"3083f5205becd4a552e72739b8080ff6d5193c401cf7f696c88b37d62d11790a", "32f5ad32b94c3bedf17520c05d636ed66705b908e77b66b46e13fb2ab4bd1bc3"},
	{"ed861c7bb231bbd955a24876466d5b2d8869abd555d87b7cee20fcf323070c94", "f063570e75d35b99b7e58befb9d8023f696457099465492ef2a75553a23e5944"},
	{"0150684f90dc610d6961f38784e8931ee9e03b568e7cac4a9efca49ed978114b", "882feb15142d1da8ce1d73604df50820aaec522092aed2b0de5ea3515cf682fd"},
	{"26f438ec5c0e88f24e5c08f4fd811214f829ba638a04c0b1b7f84776fc2d7813", "38655e38c854b3add35033e493c405d590de0f132ffd83a7708735786803dcb3"},
	{"ffd2977cb464ca8f54f2573ce85359ff8900432dad27ee13b25ed5bfb9dea724", "1b5f0d9105bfaa8ecb784b3d085be906a7aa17709ab3ad0782a6f3c938b10342"},
	{"31bbe85888668a4737aa9d7aef87a2c5c7e0810ca9d43a6ceeb94d441dd7af26", "78df92571c631c12073d5df8003bd28545953cc48a9c0dd7b32ebc88fe866999"},
	{"0bc5fb048ad3f6f103ffaf32492ea9d4f1e03799ffb82a559a3cd24f2a16c7f9", "e653a32662796830d27c81af414bff788a5646b48ad76af3c05551a4a42f0563"},
	{"2f846793b9456208303de125e901ac041c58fd78b23e24b1659c2ceda80c94a9", "04548931f6bceed754d852c8c858e62748d1b73637f4438124a1069e101a3338"},
	{"199b2fb4c0150e33af3e3de23801e3d57a1b9490cc424ddbe28740a08e4dedf5", "c37795329cdd6f7e2264f66337e657769aa05fd9982f59bec12360e7309f3a72"},
	{"f7fbde559709f2e7c6fb836b2aa46eeb3a20fe621790b78a365da2512e58be7c", "3fcb3d50df662a45a6a6c8a211b1a72acce90f2aea3f05cd24ccfc2e5c085162"},
}

func TestGenerateGolden(t *testing.T) {
	for i, want := range generateGoldens {
		seed := int64(i + 1)
		sp := Generate(seed)
		got := [2]string{sp.Hash(), jsonDigest(t, sp)}
		if got != want {
			t.Errorf("Generate(%d) = %q, golden %q", seed, got, want)
		}
	}
}
