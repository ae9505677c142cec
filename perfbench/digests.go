package main

// recordedDigests holds each workload's decision digest per seed, made by
// `perfbench -record N` (the untraced in-process replay). A run whose seed
// is listed must reproduce its digest exactly.
var recordedDigests = map[string]map[int64]string{
	"fleet-gateway": {
		0: "3be255c3258cb9f6", 1: "284abdb8010ee900", 2: "ec064744045a812e", 3: "02acc50e6954d3a5",
		4: "9ac6a3abb3ee8f1d", 5: "5e7df50a3a40eb5f", 6: "8496b9edf5f9d89e", 7: "583c5941b0cea35a",
		8: "a26692ba051172a9", 9: "0752c4d2355adcf9", 10: "02e7b4030d749593", 11: "a2397ae504e6eb06",
		12: "f72dbd92a7bc76fa", 13: "554b950f2ac930f6", 14: "8e883558292b59c7", 15: "eb2288be5ad98543",
		16: "284b26237acedbd2", 17: "06e043390bdf288a", 18: "6c7d1fb95c86c45c", 19: "65e064b4450a242c",
		20: "04823ea9945cfdc9", 21: "301b86e948192de6", 22: "915f18acc9aaf28f", 23: "1223e8eaa0b6a320",
		24: "83b2745443344986", 25: "d7a1660904742903", 26: "4a0da1172c89c303", 27: "a8c1487bb9adf427",
		28: "ea8a007185e6f558", 29: "23461aa84bc94c93", 30: "01a76e115f3039f9", 31: "076c0cd5f22dd062",
	},
	"home-command": {
		0: "ae992c63509eaab7", 1: "16b623933aaa412d", 2: "20ec04ca4c9017dd", 3: "308723c12777d380",
		4: "413b8c9aa8c93885", 5: "41a2eb5c1897f85d", 6: "bcebb707a20c9396", 7: "8b6debf120c0d460",
		8: "8badd7ee0efd2ea7", 9: "529d42915d994ac3", 10: "0e633fe2e11fb9e9", 11: "4399ac3e6911d8b6",
		12: "2518d99a5a7b3179", 13: "b96769fb43a0c236", 14: "1dd6238281528d41", 15: "534cbcb2b33ba72d",
		16: "b1b6e3f835a169cf", 17: "9b7f4c2a7ea5cddd", 18: "aba67f4c8deec263", 19: "694bb81f5c66d944",
		20: "fa6fe65111fb3e3d", 21: "c0672d98d03a90c7", 22: "66eb3f512bd2ed42", 23: "ab3658c68c38a50e",
		24: "f3293d29aa24b0a1", 25: "cc2b58c444cef80b", 26: "7a1c63f2091942e2", 27: "c8d119498e04b52b",
		28: "6aae6301fa4d905f", 29: "60106f6695f1a734", 30: "7304d7a205223c03", 31: "53a5f5a3f5dc1433",
	},
	"fleet-sensor-stream": {
		0: "d9d661cf3b138212", 1: "cb7e80bd6bfa4dff", 2: "777704e910e82a8a", 3: "e377653d849cc6a1",
		4: "1b29425202bcef7e", 5: "d5c61736aed881f5", 6: "e406c88d54a25eb8", 7: "fe08365fcb2a5cdf",
		8: "c352a8d558f52a81", 9: "0f013ea3560183cc", 10: "eb0b065e9d3b4824", 11: "c2f74b79850ee1b7",
		12: "cac8e1334568ea5d", 13: "3b45145bcd62ed75", 14: "9982512590744dd6", 15: "71daec8e7d5ccb14",
		16: "b3b98f8b5b382323", 17: "15dd7d4fe2ee0b69", 18: "5cf7e186b1e94555", 19: "15d7654ec7fcda4b",
		20: "400b12857a391ca6", 21: "4b4f8dcbb5c95eb0", 22: "cc1f0efcc3b8ff06", 23: "d58b354ffd2bb6f3",
		24: "d8d2c20be34aa944", 25: "835e46830573a002", 26: "3ab7406eaf6de392", 27: "d3363da6ddd0fff1",
		28: "16af3f040a86c1df", 29: "e601ebe7ed8fd8ba", 30: "9a335be0977edcfa", 31: "1eabf4c8752fa6ee",
	},
}
