module msweb/benchmark

go 1.22

require msweb v0.0.0

replace msweb => ../
