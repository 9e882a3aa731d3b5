module poise/bench

go 1.24

require poise v0.0.0

replace poise => ../
