package main

// pinTable maps a workload to the simulated cycles and instructions each
// hart must end with, at the default seed and full size. For the fleet
// the single entry is the origin's (and every forked job's) halt state.
type pinTable map[string][]hartCount

var pins = pinTable{
	"trap-storm": {{1183763073, 38750147}},
	"compute":    {{219626174, 163560518}},
	"smp": {{20825480, 14718090}, {20817049, 14717542},
		{20817049, 14717542}, {20817049, 14717542}},
	"fleet": {{75675, 5238}},
}
