package scenario_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"thermbal/internal/experiment"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
)

// runGoldens pins, per builtin and registered policy (in policy.Names
// order), the SHA-256 of the experiment.Summarize JSON of a 1 s warm-up
// + 1 s measurement run under the Euler reference integrator at the
// scenario's default threshold. They were captured from the builders
// the spec emitters replaced.
var runGoldens = map[string][]string{
	"bursty-sdr": {
		"c8cc94530a507e78a3b97f40b646531f951e6ddcf12d41507e8a71c2f8d36444",
		"871d8cff2d9f8f05ea709836aa7ea882f34d0a568b6fdf06e631185bf9bfbf7b",
		"704dfe36b4e7bc63239fadc52553807ed2cded6385076d56e2aa5abdd8af3ecf",
		"f3ae00bf24ffc2ea84d958b2f6041be9460eb1d042bd74f13e8e34156e05997e",
	},
	"fanout-w4": {
		"3f6edc2ff2139a220cc9e14e232a7b928fea2f5a3d438e5b4b0f82fc9b4149ec",
		"b3404176345aaa87476fa4feb21611636069ecd46d673b82b9c35213b814d0e8",
		"a30c6c20131b84449a60770c36089a0894e65e0dafcafebb69c27c3695125ae8",
		"2a6dd11a3105ad922546c5bb8112352928854af1a204fbf8940cb3e1f0ad8ae5",
	},
	"fanout-w8": {
		"b237aa3f42df8f3a8f67e57ff7a6feab4b68c169c550b0c1ebbb003428acf92a",
		"d662682856dafac6ebbd42482bab9ac14a1dc088bc8bc422794f7b2e5a8c2f7d",
		"741a1528e497e92b6ce23d5f6dbbc46677ee71a8766b31dd5f9ed2eb2fe6c6d6",
		"f747f0b8808ab78354a138aa7cb36249fd272bba0480ffed59792d520244288e",
	},
	"manycore-128": {
		"2bb810c53bb54a2a75756fed80db495bbeb1a2ca9a65a5c4d15d03b8341f3087",
		"d6be4907327b1eb88b67f1e85084234a0b700acce3906a528008d899dfc75e5e",
		"e38599aed9307986f2ecbbddfc10583bc709f1e823efdd82f197f81db4be4fcd",
		"9e94f813e32048252c53cd4e0a85944410f9b9fb3f09bcb6816aa40b77857490",
	},
	"manycore-16": {
		"a188bf24eea8e30deb78f8ce3885837a38bb4c32c7526eb29672575ecdcfc354",
		"a7350aaba9b9ddeb2b318a73e42a18398c6f7a9ad2c44a98407c598b6bc30b66",
		"d1189097b703decf70778613e4db37831dec6ee64e042806dd8f1705cb564f3d",
		"54136774b35517242c9ec2df0d47723e7af098071297dc37dd62e8c02683c689",
	},
	"manycore-256": {
		"bbc6c4a2c34fbcc934fc42139a601e1eac8ab7803cbd061ddcf025d3fbd514bf",
		"3e0c23c0be60ad0e4a76f2a8544590ba6c9526a14cb82bf416e4062ccfc9dfd5",
		"f82b9fc5aa081d21239f4c842510bae42233b90b21cd104e132f1843bd2ae55c",
		"90cec2d096ee171d09bcaed5314bf3176940981d90d6c1ac18704894039ac5de",
	},
	"manycore-32": {
		"a7bd9f41b1b4615daf6ae3d3f334ff30e7ed7eb1fea00c02a207422e4c3e9483",
		"a9672edeeba4f2c9fa6485df86aa26fd44a068dfc5f1f2e4bfa834adcd18272a",
		"0c3158f51b0c12ff9004c8753537ea99f27d51588ae48f965020410e0e379bbc",
		"710e380c2c639b7c4324eb9045ed82971aebd0d34933f23ebb6467218d4cd1e8",
	},
	"manycore-64": {
		"d61743a9f08f19d0bc1e7741a3109fb9d798d00c979245a485fea26514610221",
		"2c035db5f1ea3fa082160a3c3ac241917dd2b0ee311697834acb7e3547e93f9e",
		"269085c565d211b2c847ab654d0b2d2f7c32c16fd389b69f2d65d3550f9a5fca",
		"3ded70fbd0c6f0523016ab6df36d48a88a2bc890d124253e17ef9121346719bd",
	},
	"manycore-8": {
		"8230e3213ee70a59774376ae4cd34ce740fb5010d035ce96d39419b41a6a7637",
		"2cd64d3057eced4d9c16017f70cacfdc1d96a17dfa34109611664f735692c000",
		"85006e6e9a7f2a35ac655969227977db0e0b0fc30cd4e73a2b09af9018eaa460",
		"a41bbc4a2dd0839799b35b1b4a48c18ddded755d0694718a77023cf769937df7",
	},
	"pipeline-d16": {
		"7c2d2275b25058ee32dd5bfd15931214d76954ef7f7e8e34ae677bde65ad67d6",
		"7711d08e8405f4d1170bece0ddd36a59c985408106b314887074e8723df22963",
		"360553394aba7860d08f8c6ec7fe4a0c36b62775c23b727214ae49a7f8fa0b1f",
		"8f6a75712ea30847d266622bee33b7b3230d845d96c9797897495bd78b69e8e2",
	},
	"pipeline-d4": {
		"450314738319a43d6ab172d7ecedd19bcaf9233f6a816d961a64170d43494319",
		"a679a5be05cbac3466902edda9855b860dbf6806bca4159e8e0f4cfaa69d70ab",
		"12fa8e5a13b25bb40e786c105c8b4b43c44e38b8e15d12c1b3c19e9d7453d552",
		"74bb1f4a89f5c708060c970522d1b6d46a3b9674c1b1b09d22969236671fad6c",
	},
	"pipeline-d8": {
		"804e3eab7c565e57bd370e946b783778e5f57c05497c9c111eeeeba729b1cb21",
		"b45f8ee93421ca25cb42517463f7713229c771d08b8d48c353d0c70feebab435",
		"8c638374286c991058396135bbd240aca16059b6c92c2bb18587e165b25903cf",
		"19be6f93198a0eeed874449a8bc9d2bb9e1d418d8ba01946566589869543f761",
	},
	"sdr-radio": {
		"731441490bfa2e208fff504100b0d4bc00023b5acf6d9e4b55951519fca70357",
		"45d17e0e496395346a846e46f916542e386a8dbc4b9a0412ccdd7082ffc66415",
		"64cfc2a4f5ebf1074fed56bd932b1618e9d5fc184ff8d23c330ec629b217b555",
		"32073dfc7205af0b7d41a8d046ff9d16f1aebab79225bc2a831ed349b6a155f1",
	},
	"video-decoder": {
		"2de9dd6bdd01851c8344a0e3a215eadd40087bb6c20c5e6770670e52ab5fa55f",
		"296bc9139e6d89af9b15aa69651c97e4b336837b2eeb581f88fc21795ea57c27",
		"aea22a32e30f8143982576769f576272a0f3cb11a0d5b3386fe730db0c8fd46a",
		"45149c663c9ad058f6c5d8bc513454ab419aeabab8ecb54c8ed29fe785305929",
	},
}

// TestBuiltinSpecsRunBitForBit runs every builtin under every
// registered policy and requires each summary bit for bit equal to its
// golden: identical specs must compile to identical trajectories,
// platform assembly and load modulators included.
func TestBuiltinSpecsRunBitForBit(t *testing.T) {
	pols := policy.Names()
	for _, sc := range scenario.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			want := runGoldens[sc.Name]
			if len(want) != len(pols) {
				t.Fatalf("%d goldens for %d policies", len(want), len(pols))
			}
			for i, pol := range pols {
				res, _, err := experiment.Run(experiment.RunConfig{
					Scenario:   sc.Name,
					PolicyName: pol,
					Delta:      sc.DefaultDelta,
					WarmupS:    1,
					MeasureS:   1,
				})
				if err != nil {
					t.Fatalf("%s: %v", pol, err)
				}
				b, err := json.Marshal(experiment.Summarize(res))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != want[i] {
					t.Errorf("%s: summary digest %s, golden %s", pol, got, want[i])
				}
			}
		})
	}
}
