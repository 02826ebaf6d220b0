package main

// The recorded outputs the correctness gates compare against. They
// change only when a change deliberately changes a result; record new
// values from the "digests" and "rates_digest" fields of a run's report.

// digestBase is the base scale (experiments.Config.BaseRecords) every
// digest here was recorded at. A run at another base has nothing to
// compare against and is refused unless it turns the digest checks off.
const digestBase = 40000

// suiteDigests holds the sha256 of every registry experiment's rendered
// text at digestBase.
var suiteDigests = map[string]string{
	"ablation-adaptivity":   "9071203ac6725a629b2d53d00b962c0dfb7693d321908beae7a5f0143c9c90c4",
	"ablation-competitors":  "798d6309d2ac01148e070d629282df6699c04329c03b2e03ce369a8b699a8835",
	"ablation-dynsel":       "30ea2c3f42fa2cf50d48ccd16f38a0523883f92fc40d8fd55eecec043c4aec2d",
	"ablation-heuristic":    "8bbcc55bb01c2effa9452abaa6edf453a2430b69d06091eb022a65d782342a87",
	"ablation-hfnt":         "41f5df3edbb8280e33aeb1d49cd7f49f2cd3a9978f1455dbdf1c677f4fb75a71",
	"ablation-histstack":    "7f3605e208502b044427307b4c94e19ff65620f1e2305dafd7f3818904cbd164",
	"ablation-indfield":     "0bbfbb1e09489908be31ebb1677c3c0bd4997247c0eca7ffd96e9d9a30b07363",
	"ablation-interference": "74e026ab142e0a8de9a04d9b69753a4eef102d7d14987ee408f58b06097f3d8a",
	"ablation-isabits":      "428d9952d020a55f91fe8a0c2aa1a63975dfcf7bf2c042bac02973a508856014",
	"ablation-pathinfo":     "18aac0da29f386f25354eee012ece4288b1b7811435cb9e346cc422723bbd581",
	"ablation-ras":          "4bf37b02b20c0a3684dce7a268cae7cc26dd8fb9ffe4f72233d1306b948e717c",
	"ablation-returns":      "658735e6231934898a42945d2ea8599dbbba13779121b580ddd0a91a407db5f4",
	"ablation-rotation":     "af7e2a797154c70d12d2aa20227089eb2af405f92010a2ff47451acd09cc3da4",
	"ablation-speedup":      "71bd055b78f7e93196d96ee2f610db8e3f5cdc85ca9c6c69f449e71c1c77bddf",
	"ablation-stability":    "6177a5b58323c31f5b6b6f46b95ae2a7edae666bb6ce62a7bf7b78e81cb416a2",
	"ablation-subset":       "9b2293a30eb4b5dbbe3a71e199c4109e90426769f20ba1b208ed70185610633b",
	"fig10":                 "f7089d62004e7820d233bcb53bbc46733a5fb8cf264209016db87278fff802f9",
	"fig5":                  "d03ed0811e4ae1e4edc73d9ede05491e0df977e3da339c5502e7e6d8414c52cd",
	"fig6":                  "6bb3a2f3ca4ab2ea1185afe4e365d109b974308a28ce2e7a420642f38cd0903b",
	"fig7":                  "1eda72f8ba9215546ecb6998d474163cce78ad41e40e5c575b6a9ede5dac2ef2",
	"fig8":                  "98cc7017b20d99d6af520d332b24b7859518ebb27c5fcadbb0d3ece7ae4fe67a",
	"fig9":                  "0179f413b8869da7b0d719cd99e6429f8ff6a2919858c57c630d344a4ef7097e",
	"headline":              "475f46bf04577bf736434d27ed2ca872e3a46a38a2225720184140fa58951e09",
	"table1":                "14fc08a34e3087312a2e040823bed7fc93bdbac183db41cf76975b7eba3b8c01",
	"table2":                "3b6cc288748284f12886972c7cbafea9a4af8f347471d4fd4308a6e8c7a247c5",
	"table3":                "8960ef125f3ce5f29bab7eaf958470669f782a01171a2349d50c66cd24c5f5ee",
}

// gridDigests holds ratesDigest of the replay-grid warm-up pass at
// digestBase, keyed by seed, for seeds 0 to 15. Every seed is also
// checked against the per-cell reference replay.
var gridDigests = map[uint64]string{
	0:  "b68446cc89f6fa495cc0b68b30a2cf70abdbcba9ea222ab5e46d548b08d2bb67",
	1:  "a5536a730dab4f7ed29f25c3f3bb5bdb2d51cd58e06c99dd77d30618410cbf3f",
	2:  "345b56458eec948887eb4d6bd6205b20cd09a832882bb05a34fec1065b0f11ab",
	3:  "e84fa774123b2a04570f88e4fe9d3d66f658509ecee8000ea801b97bb83141ec",
	4:  "8a0be224f6c6d913df349e3f299acd6210509a3abf3886afe4bf8dfcc1f29637",
	5:  "604eddb6e13c01d938f630d27647b3a9671ac32e8494d10dcf98152b795ae08f",
	6:  "d492b157769638a9f2e64a0918452eaec06b894c5a3a3275aff23c4785f1a29f",
	7:  "9ef13b02fb53259fbd853d3ba3b54ba6a78f96473268d0a2ceaccca1ddff1546",
	8:  "cb45af90ac555ca18a8c0dcacacf1074404d39a49b7d7274949c387edc0a6c3a",
	9:  "888d2f7930f799d69ef4fa13fa52b4c40173788ae42b0fc36f9130b182886f8e",
	10: "6baf22a8f4aa4e5a55d9270eb9207f2ec4894e3df25474acb292d87e6e4aaf05",
	11: "4ae0f3ab5640a533038643990789863ee7e0a6086abca4cad346fd9922c22507",
	12: "aaccb138cb51c531440178f945d8103892691766f9dfbdf95d0caf7a518b36be",
	13: "42f47792ed685ac0cd6277d9319795ec2aa6b51e71a90abbcff21913277bf563",
	14: "d037baaea9e0f9a4cd1efbb953889af13cc45b03fef1af1b3ffc59fc4e2dd73b",
	15: "5b3b9fb2a0b7d33b62d192fd25db2383e20da907c306892b37cbfb3cefaadbc3",
}
