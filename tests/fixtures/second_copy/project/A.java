class A {
    int f(int[] xs) {
        int total = 1;
        total = 0;
        total += xs.length;
        int first = total;
        total = 0;
        total += xs.length;
        return first + total;
    }

    int g(int[] xs) {
        int total = 2;
        total = 0;
        total += xs.length;
        return total * 2;
    }
}
