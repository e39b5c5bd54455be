package main

// pinnedDigests holds, per "workload/seed", the SHA-256 of each
// operator's report JSON at the default (paper-size, unbudgeted)
// configuration. cable-3x-spill is pinned to the digests of the same
// 3x study on the resident archive: the windowed engine promises
// bit-identical output, and the benchmark relies on it.
// TestPinnedDigestsFromResidentArchive re-derives them.
var pinnedDigests = map[string]map[string]string{
	"cable-1x/7": {
		"comcast": "9818b4190a5591646828730c8a1825c5e5586b0b5de0483defd851509fa3fa4a",
		"charter": "3fead3159ab0a4e25438456692699a9409beef612787fe2ec3c3ab331d8d1613",
	},
	"cable-3x-spill/7": {
		"comcast": "c11cbfec796547f47ab03237449ba6b28152f20d6a3ac2601f1f264b8bc32712",
		"charter": "a6529ddcd1d857484233eb3701e023b6ae4f7b79dc189162a17751a36e4cff40",
	},
}
