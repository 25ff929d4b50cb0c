module kpj/bench

go 1.22

require kpj v0.0.0

replace kpj => ../
