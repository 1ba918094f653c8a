n = 0;
n += xs.length;
