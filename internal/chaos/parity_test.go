package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// resultDigest hashes the deterministic record of one run: the decision
// log, the quiescent metrics snapshot, the trace outcomes and the
// virtual duration. Wall time is the only field left out.
func resultDigest(r Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "log %d\n%s", len(r.Log), r.Log)
	fmt.Fprintf(h, "metrics %d\n%s", len(r.Metrics), r.Metrics)
	fmt.Fprintf(h, "outcomes %d\n", len(r.Outcomes))
	for _, o := range r.Outcomes {
		fmt.Fprintf(h, "%+v\n", o)
	}
	fmt.Fprintf(h, "virtual %d\n", r.Virtual)
	return hex.EncodeToString(h.Sum(nil))
}

// parityGolden pins the digest of every run below. The table was
// recorded when a one-group scenario still ran on a bare service.Service
// beside the sharded path, so it holds the one-group shard.Runtime to
// that output seed for seed — schedules, decisions, metrics and virtual
// time alike. A digest only moves when the live stack's behaviour does.
var parityGolden = map[string]string{
	"g1/1":  "70311b9ed6ca4302bede4622573d28d3b691535feebd300511b5cf0b05322ae0",
	"g1/2":  "28fd68970f28c8599869ff9d12e5d56743858c4f30fca9a4488633608d16ca7f",
	"g1/3":  "8029c589b62b6584a5ddb3aed5f474e5220198a2420539aac918ae5ae48ca43d",
	"g1/4":  "92fff596b18973e22f16cfe09d3c9547c8693c741a6abdee5117339eb7382288",
	"g1/5":  "d37896e05c3405e3e26f3ce4c80b7b1ad1bc87e0dd5f2f000ae2fabc995b3b91",
	"g1/6":  "1c3f9ecb71f2344761e58e687332e557ffee210b32f8cdf43a5b9b087f312ca1",
	"g1/7":  "a9f2b75d52031e75a179a7dcf4acbbd65b1ced0153b9d38d7f6aff3b31dc5ed1",
	"g1/8":  "247f1d5a12b6f6902529f67b19c6755fa98bcc9eed9dbc2697568fc690d8121e",
	"g1/9":  "2606025bdea533dc26313e852f897c29416dfab6956eb3cf69d38b7f8a4f5b3e",
	"g1/10": "e43977347480e0c3f6e3545a8b21ed39b04b88e20e8073798840b0670fedfe8a",
	"g1/11": "45a6d7eff12c1542df5cb83852c1c2501c5255c4d8c91923b8248ce3421f6ed3",
	"g1/12": "f6b0025dc3bdb9881a50d2c3060716ea0ea9c0b2c314a17f4358e246058ff261",
	"g1/13": "08234693d0546aadcc3b1db06f102369d90fdd69ecb4b4e5c7bc60aeab6c0d4f",
	"g1/14": "26075c3dba0d7864b4140849b28e15a251083c7b7220d30628c679dbf30e5178",
	"g1/15": "84d3cc5d9f8b3058d32fa56d99777e68b79612338cf9b031a97348772e77b6d6",
	"g1/16": "9f177fa06ef9ec33a0a32463eaeaf092b11463cc6d91c7f94b6eb513ba3861aa",
	"g1/17": "e3d5a33051f759bcdd637898daba249fb2a8a172a3aece19c8334b09e3e8b05b",
	"g1/18": "0ff6c2f175ffb78a0e6c74c93470b45cf3f2802847fbeee767be3d706e9913cc",
	"g1/19": "47a8d8a1d382c00a2927ede9fb86a46c500a71af08e29c603fbc07e1cb6c15cc",
	"g1/20": "6cf99472f204c64e688d610a8d96359646ed3398fc99313dd133940561d70bde",
	"g1/21": "9d1eab6462d8d5cbda9f6bf7da8cb1fe074df74653cdaf678364ae43672cc8ad",
	"g1/22": "3739f0d0b1ead79f8e4f4fa730c3b7b2e887de0369cf3b862fc42d5acf511476",
	"g1/23": "4130d4b254429587063f5faae8e17e815b2790fa4721440824d5e100d5198378",
	"g1/24": "4c0d108b61ebb5d7a8653c86ef10529d1adae1c68a5b1d8db0f1e1ce8c146438",
	"g1/25": "97be127497ac061c0f5f976f2a215f31545b24ee84c8baf1144d3a1e1457db8a",
	"g1/26": "a7f7c5465f8dca63f435ce56e9307901d410d104f98e866aac219c9e94c74d5e",
	"g1/27": "e2df73dc4ef5b5f05fa4cbbeaa2c07e0c9564d5eed5cc2902aa00dbdf6222f06",
	"g1/28": "0312f5997e60739449cf772419bd8c49dab1d803cb8354e742ade193be2cb35e",
	"g1/29": "0c0d8e5b17aa19c3adbdf339b87267ac6e19a662a3f347e72bdba8be31a83bdc",
	"g1/30": "97f9d5ba128e4c7f729a18cc64b618f37c8cb68168744e2988135db0b61918dd",
	"g1/31": "4573417bca33fb041c91465a3f6ea077803aced6f83849342c71dd59c6351fc1",
	"g1/32": "2cefee60a2f5221cab1bd54b8de98d53e030bb29f812a755d7e58c2d41fc0987",
	"g1/33": "81d0ed7811212cce482c3c6005e9fa1a145d787411222620d500ec122c670ac6",
	"g1/34": "a74635faab61dcc186f0adecaf525bab5d83a584cc4dffd80b709d8f579f0acc",
	"g1/35": "1cfaaa86e2f3cc90fb69936d9e9adbba5f45d5c1f081a689a857adca26964d16",
	"g1/36": "c45ec6954be332b3267d90ef804048265fbab6ab0bb67ceb2c2deb9217481e33",
	"g1/37": "a43af51299bd83b9ce2a82e9734e8bad4814f7e9a50d5a87c70049300b3d6571",
	"g1/38": "dd730f280fd15d37333148d1888648015c4a6afeee1b08b0d1d5b62103278e8e",
	"g1/39": "1059d12c680cee2b608ce1f1bbf245896b48f5c0a157de08dd5e0a2bf7860b8b",
	"g1/40": "4e0e21774af557c31e61901ed7d0068370feabca4cfcd12ba5f0eec9c9283935",
	"g3/31": "5879cf222b6095e006bccfbd838e3f7c967041399293b81377eb43444a32e0bb",
	"g3/32": "0641721ada735f6e482d01691c6889f05a4641c76ba578fa60597490b26103da",
	"g3/33": "473cecbbcd85aa53eafd60e465b9339fdd45c64ef46c4975ec52116cecedf76c",
	"g3/34": "3c85e09183c6b37005d227164402820b5ad6216a144cf504f03f45a189e1a969",
	"g3/35": "8f166ade53e5328dc14f0a83a26419e4f758a3763087b6b1736f48633182577a",
	"g3/36": "74a7a660c8df579bf0ced9be7ba0ce5225f5e94d1812ec643100438e1cb6dfbf",
	"g3/37": "a66db84780207adc5f0cd714f23ae1864d91c6111d5ebd9f3082bc8512ad70df",
	"g3/38": "3adc28a0f179ea113ff2b8109fd16c13a966e242cc32a0852aef1cf024b42220",
	"g3/39": "40b4039181bbf70d9b99e6a27b8d080d4791f3f1a2ac7a03832b6825d785af92",
	"g3/40": "ce7da00dc81fb7aeb1fb9b0da9f136288b3f8e2df7c78fdd3c195c2bda36024c",
	"w1/11": "68ce5723e9243e024d1221fff2e932483c27f91a9d1c30ba37e6d03e2624f097",
	"w1/12": "c0634068a76d507fa99b35f991397d5722ae8d96be95013bded38c820c3013b0",
	"w1/13": "bd30ae503d5a5658d947975f24626bf22a06acbf8477a7accc873a2300309ef3",
}

// TestRunDigestParity runs the generated single-group adversaries
// (seeds 1–40), their 3-group twins (seeds 31–40) and three one-group
// classed workload scenarios, and compares each result's digest with
// the golden table.
func TestRunDigestParity(t *testing.T) {
	pin(t)
	var runs []struct {
		name string
		sc   Scenario
	}
	add := func(name string, sc Scenario) {
		runs = append(runs, struct {
			name string
			sc   Scenario
		}{name, sc})
	}
	for seed := int64(1); seed <= 40; seed++ {
		add(fmt.Sprintf("g1/%d", seed), Generate(seed))
	}
	for seed := int64(31); seed <= 40; seed++ {
		add(fmt.Sprintf("g3/%d", seed), GenerateGroups(seed, 3))
	}
	for seed := int64(11); seed <= 13; seed++ {
		sc, err := ScenarioFromTrace(traceHeader(t, seed, 1))
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("w1/%d", seed), sc)
	}
	for _, r := range runs {
		res := Run(r.sc, Options{})
		if !res.OK() {
			t.Errorf("%s: run not clean: err=%v wedged=%v violations=%v", r.name, res.Err, res.Wedged, res.Violations)
			continue
		}
		if got := resultDigest(res); got != parityGolden[r.name] {
			t.Errorf("%s: digest moved\n\t%q: %q,", r.name, r.name, got)
		}
	}
}
