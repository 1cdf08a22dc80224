module godiva/bench

go 1.22

require godiva v0.0.0

replace godiva => ../
